//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --limit-ms <ms>`
//!
//! Runs one workload and prints two JSON lines: a self-describing report
//! (host, commit, protocol, every metric, notes, span totals), then the
//! result line `{"correct", "attempted", "failed", "metrics"}` — end-to-end
//! metrics untraced, per-layer metrics with `--trace 1`. Both, and the
//! spans of a traced run, are also written under `out/` beside this
//! crate's manifest.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host::Host;
use perfbench::json::Json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::serve::TENANTS;
use perfbench::{run, Bench, Opts, PASSES};

fn parse(args: &[String]) -> Result<(Bench, Opts), String> {
    let (mut seed, mut seconds, mut trace) = (1, 30.0, false);
    let (mut bench, mut limit_ms) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{flag}: expected a positive number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench =
                    Some(Bench::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: expected an integer, got {value:?}"))?
            }
            "--seconds" => seconds = num()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            "--limit-ms" => limit_ms = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let opts = Opts {
        seed,
        seconds,
        trace,
        limit_ms: limit_ms.ok_or("--limit-ms is required")?,
    };
    Ok((bench.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (bench, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let outcome = run(bench, &opts);
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    for p in &outcome.problems {
        eprintln!("perfbench: INCORRECT: {p}");
    }

    let list: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut all = END_TO_END.to_vec();
    all.extend_from_slice(&PER_LAYER);
    let spans = outcome.tracer.as_ref().map_or(Json::Null, |t| {
        Json::Obj(
            t.totals()
                .into_iter()
                .map(|(name, s)| {
                    let v = Json::obj([
                        ("count", Json::Int(s.count as i64)),
                        ("total_ms", Json::Num(s.total_ns as f64 / 1e6)),
                        ("self_ms", Json::Num(s.self_ns as f64 / 1e6)),
                    ]);
                    (name.to_string(), v)
                })
                .collect(),
        )
    });
    let report = Json::obj([
        ("workload", Json::str(bench.name())),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("host", host.to_json()),
        (
            "protocol",
            Json::obj([
                ("limit_ms", Json::Num(opts.limit_ms)),
                ("passes", Json::Int(PASSES as i64)),
                ("tenants", Json::Int(TENANTS as i64)),
            ]),
        ),
        ("correct", Json::Bool(outcome.correct())),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", outcome.metrics.render(&all)),
        (
            "not_measured",
            Json::Arr(
                outcome
                    .metrics
                    .missing(list)
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        ("notes", Json::Obj(outcome.notes.clone())),
        ("simulated_totals", Json::str(&outcome.fingerprint)),
        ("spans", spans),
    ]);
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", outcome.metrics.render(list)),
    ]);

    let stem = format!(
        "{}-seed{}-trace{}",
        bench.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let mut files = vec![(format!("{stem}.json"), report.render())];
    if let Some(t) = &outcome.tracer {
        files.push((format!("{stem}.spans.json"), t.to_json().render()));
    }
    for (name, text) in files {
        let path = out_dir.join(name);
        if let Err(e) = std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    println!("{}", report.render());
    println!("{}", result.render());
    ExitCode::SUCCESS
}
