//! T4: floating point addresses vs fixed segmentation — the small object
//! problem (§2.2).
//!
//! Paper: MULTICS' 18/18 split allows 256K segments of ≤256K words — "both
//! these limits are too restrictive". A 36-bit floating point address
//! (5-bit exponent, 31-bit mantissa) names billions of segments and
//! segments up to 2^31 words.

use com_bench::print_table;
use com_cache::Rng;
use com_fpa::{AddressScheme, FixedFormat, FpaFormat, NamingOutcome};

/// A size in `lo..=hi`.
fn range(rng: &mut Rng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

fn scheme_rows(schemes: &mut [(&str, Box<dyn AddressScheme>)]) -> Vec<Vec<String>> {
    // A Smalltalk-flavoured object mix: mostly tiny objects, occasional
    // large images (the paper's image-processing motivation).
    let mut rng = Rng::new(1985);
    let mut sizes = Vec::new();
    for _ in 0..400_000 {
        let per_mille = rng.below(1000);
        let words: u64 = if per_mille < 800 {
            range(&mut rng, 1, 8) // tiny: points, pairs, cons cells
        } else if per_mille < 970 {
            range(&mut rng, 9, 64) // small: contexts, small arrays
        } else if per_mille < 999 {
            range(&mut rng, 65, 4096) // medium collections
        } else {
            range(&mut rng, 1 << 18, 1 << 22) // images
        };
        sizes.push(words);
    }
    let mut rows = Vec::new();
    for (name, scheme) in schemes.iter_mut() {
        scheme.reset();
        let mut named = 0u64;
        let mut out_of_names = 0u64;
        let mut too_large = 0u64;
        let mut slack: u128 = 0;
        let mut payload: u128 = 0;
        for &words in &sizes {
            match scheme.name_object(words) {
                NamingOutcome::Named { slack_words } => {
                    named += 1;
                    slack += slack_words as u128;
                    payload += words as u128;
                }
                NamingOutcome::OutOfNames => out_of_names += 1,
                NamingOutcome::TooLarge => too_large += 1,
            }
        }
        let overhead = if payload > 0 {
            slack as f64 / payload as f64
        } else {
            f64::INFINITY
        };
        rows.push(vec![
            name.to_string(),
            format!("{named}"),
            format!("{out_of_names}"),
            format!("{too_large}"),
            format!("{:.2}x", overhead),
        ]);
    }
    rows
}

fn main() {
    println!("T4 reproduction — the small object problem");

    // Address-space capacities (paper's comparison table).
    let fpa = FpaFormat::COM;
    let multics = FixedFormat::MULTICS;
    let cap_rows = vec![
        vec![
            "fixed 18/18 (MULTICS)".to_string(),
            format!("{}", multics.max_segments()),
            format!("{}", multics.max_segment_words()),
        ],
        vec![
            "floating point 5/31 (COM)".to_string(),
            format!("{}", fpa.total_segment_names()),
            format!("{}", fpa.max_segment_words()),
        ],
    ];
    print_table(
        "36-bit address formats",
        &["scheme", "nameable segments", "max segment words"],
        &cap_rows,
    );

    let mut schemes: Vec<(&str, Box<dyn AddressScheme>)> = vec![
        ("fixed 18/18", Box::new(com_fpa::FixedScheme::new(multics))),
        (
            "fixed 12/24",
            Box::new(com_fpa::FixedScheme::new(
                FixedFormat::new(12, 24).expect("valid"),
            )),
        ),
        (
            "fixed 24/12",
            Box::new(com_fpa::FixedScheme::new(
                FixedFormat::new(24, 12).expect("valid"),
            )),
        ),
        ("fpa 5/31", Box::new(com_fpa::FpaScheme::new(fpa))),
    ];
    let rows = scheme_rows(&mut schemes);
    print_table(
        "Naming 400,000 objects (80% tiny / 17% small / 3% medium / 0.1% image)",
        &[
            "scheme",
            "named",
            "out of names",
            "too large",
            "naming slack",
        ],
        &rows,
    );
    println!(
        "\npaper: fixed splits fail on one tail or the other (too few names, or large objects \
         unaddressable, or enormous per-object slack); the floating point format handles both. \
         fpa slack stays ~1x (power-of-two rounding) while naming everything."
    );
}
