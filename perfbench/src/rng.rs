//! The benchmark's one seeded generator and the schedules it draws.

/// xorshift64* seeded through splitmix64, so nearby seeds give unrelated
/// streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; every seed (0 included) is valid.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A closed-loop schedule: `rounds` rounds, each a seeded permutation of
/// the `programs` program indices, so every program runs equally often
/// and only the order depends on the seed.
pub fn rounds_schedule(seed: u64, programs: usize, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..programs).collect();
    let mut out = Vec::with_capacity(programs * rounds);
    for _ in 0..rounds {
        rng.shuffle(&mut order);
        out.extend_from_slice(&order);
    }
    out
}

/// One request of a server schedule: which tenant, which program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// Tenant index.
    pub tenant: usize,
    /// Program index.
    pub program: usize,
}

/// `count` requests. Tenants and programs both come in seeded rounds:
/// every `tenants` consecutive requests name each tenant once and every
/// `programs` consecutive requests ask for each program once, so load and
/// mix are the same for every seed and a tenant is rarely asked twice at
/// once.
pub fn request_schedule(seed: u64, count: usize, tenants: usize, programs: usize) -> Vec<Pick> {
    let mut rng = Rng::new(seed);
    let mut tenant_order: Vec<usize> = (0..tenants).collect();
    let mut program_order: Vec<usize> = (0..programs).collect();
    (0..count)
        .map(|k| {
            if k % tenants == 0 {
                rng.shuffle(&mut tenant_order);
            }
            if k % programs == 0 {
                rng.shuffle(&mut program_order);
            }
            Pick {
                tenant: tenant_order[k % tenants],
                program: program_order[k % programs],
            }
        })
        .collect()
}
