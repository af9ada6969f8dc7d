//! The measurement protocol every `BENCH_*.json` pipeline shares: paired
//! rounds with the median round kept, the host an artifact was measured
//! on, and the JSON writer.
//!
//! A round times every configuration a pipeline compares back to back,
//! under the same conditions, and the pipeline's headline ratio is taken
//! within the round; across rounds the one with the median ratio is
//! reported, so one outlying round does not set the figure.
//!
//! The writer builds values from already-rendered JSON fragments:
//! integers and booleans display as JSON, and [`num`], [`text`], [`obj`],
//! [`arr`] and [`rows`] return rendered values. [`artifact`] puts the
//! shared header and every top-level key on a line of its own, and
//! [`rows`] puts each row on its own line, so regenerated files diff line
//! by line.

use std::fmt::Display;
use std::process::Command;

/// Runs `repeats.max(1)` rounds, orders them by `ratio`, and returns the
/// median round (the upper of the two middle rounds for an even count).
///
/// # Errors
///
/// Returns the first error a round returns.
pub fn paired_median<R, E>(
    repeats: u32,
    mut round: impl FnMut() -> Result<R, E>,
    ratio: impl Fn(&R) -> f64,
) -> Result<R, E> {
    let mut rounds = (0..repeats.max(1))
        .map(|_| round())
        .collect::<Result<Vec<R>, E>>()?;
    rounds.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let median = rounds.len() / 2;
    Ok(rounds.swap_remove(median))
}

/// `num / den` for two counts or wall-clock readings, with a zero
/// denominator read as 1.
pub fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Where an artifact was measured; written into every artifact's header.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the host exposes (`std::thread::available_parallelism`).
    pub cores: usize,
    /// `git describe --always --dirty` of the measured source tree, or
    /// `unknown` when git is unavailable.
    pub commit: String,
}

impl Host {
    /// Probes the running host and the source tree this crate was built
    /// from.
    pub fn probe() -> Host {
        let commit = Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .filter(|commit| !commit.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
        }
    }

    /// Whether the host has fewer cores than `workers` threads, so
    /// wall-clock figures reflect time-slicing rather than parallelism.
    pub fn limited(&self, workers: usize) -> bool {
        self.cores < workers
    }
}

/// A number with three decimals, or `null` when it is not finite (JSON
/// has no NaN or infinity).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// A JSON string: quoted, with `"`, `\` and control characters escaped.
pub fn text(s: &str) -> String {
    let body: String = s
        .chars()
        .map(|c| match c {
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            c if u32::from(c) < 0x20 => format!("\\u{:04x}", u32::from(c)),
            c => c.to_string(),
        })
        .collect();
    format!("\"{body}\"")
}

/// An object on one line, keys in the order given.
pub fn obj(fields: &[(&str, &dyn Display)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("{}: {value}", text(key)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// An array on one line.
pub fn arr<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let body: Vec<String> = items.into_iter().map(|v| v.to_string()).collect();
    format!("[{}]", body.join(", "))
}

/// An array with one item per line, for an artifact's rows.
pub fn rows<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let body: Vec<String> = items.into_iter().map(|v| format!("\n    {v}")).collect();
    format!("[{}\n  ]", body.join(","))
}

/// A whole `BENCH_*.json` document: the header every artifact shares
/// (`bench`, `schema`, `host`, `protocol`, `unit`), then `body`, one
/// top-level key per line.
pub fn artifact(
    bench: &str,
    host: &Host,
    protocol: &str,
    unit: &str,
    body: &[(&str, &dyn Display)],
) -> String {
    let header: [(&str, &dyn Display); 5] = [
        ("bench", &text(bench)),
        ("schema", &1),
        (
            "host",
            &obj(&[("cores", &host.cores), ("commit", &text(&host.commit))]),
        ),
        ("protocol", &protocol),
        ("unit", &unit),
    ];
    let lines: Vec<String> = header
        .iter()
        .chain(body)
        .map(|(key, value)| format!("  {}: {value}", text(key)))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_median_and_json_fragments() {
        // Rounds come back in call order; the median is by ratio.
        let median = |ratios: &[f64], repeats: u32| {
            let mut calls = 0;
            let (picked, _) = paired_median::<_, ()>(
                repeats,
                || {
                    calls += 1;
                    Ok((calls, ratios[calls - 1]))
                },
                |&(_, ratio)| ratio,
            )
            .unwrap();
            (picked, calls)
        };
        assert_eq!(median(&[3.0, 1.0, 2.0], 3), (3, 3));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0], 4), (3, 4));
        assert_eq!(median(&[7.0], 0), (1, 1));
        let failed = paired_median(3, || Err::<f64, _>("boom"), |&r| r);
        assert_eq!(failed, Err("boom"));

        assert_eq!(num(5.0), "5.000");
        assert_eq!(num(1.0 / 3.0), "0.333");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");

        assert_eq!(text("churn"), "\"churn\"");
        assert_eq!(text("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(text("1\n2\t\u{1}"), "\"1\\u000a2\\u0009\\u0001\"");

        let host = Host {
            cores: 2,
            commit: "abc1234-dirty".to_string(),
        };
        let doc = artifact(
            "demo",
            &host,
            &obj(&[("rounds", &3), ("names", &arr([text("x"), text("y")]))]),
            &obj(&[("ratio", &text("a over b"))]),
            &[("rows", &rows([obj(&[("n", &1)]), obj(&[("n", &2)])]))],
        );
        assert_eq!(
            doc,
            "{\n  \"bench\": \"demo\",\n  \"schema\": 1,\n  \
             \"host\": {\"cores\": 2, \"commit\": \"abc1234-dirty\"},\n  \
             \"protocol\": {\"rounds\": 3, \"names\": [\"x\", \"y\"]},\n  \
             \"unit\": {\"ratio\": \"a over b\"},\n  \
             \"rows\": [\n    {\"n\": 1},\n    {\"n\": 2}\n  ]\n}\n"
        );
        assert!(host.limited(4) && !host.limited(2));
    }
}
