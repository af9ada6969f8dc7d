//! `vmlint` — static verification, dataflow lint, and whole-image
//! analysis over COM program images, with stable diagnostic codes, a
//! deny mode for CI, machine-readable output, and a facts artifact for
//! downstream consumers (ITLB pre-seeding, a future JIT).

use com_stc::{compile_com, CompileOptions};
use com_verify::facts::json_str;
use com_verify::{lint_facts, DiagCode, Diagnostic, ImageFacts, Severity, VerifyError};
use com_workloads as workloads;
use std::process::ExitCode;

const USAGE: &str = "\
vmlint — static verifier, lint, and whole-image analysis for COM images

USAGE:
    vmlint [OPTIONS] [FILE...]

Each FILE is COM source text, compiled (with the standard library) and
linted. With no FILE and no target option, lints the built-in workloads
and the bare standard library — the CI sweep.

OPTIONS:
    --workloads          Lint every built-in benchmark workload (each
                         workload's entry selector seeds the L006 roots)
    --stdlib             Lint the standard library compiled on its own
    --entry NAME         Add an entry-point selector to the L006
                         call-graph roots (repeatable; applies to every
                         target, and a NAME no method of a target
                         answers is a usage error)
    --deny               Exit 1 on warning-severity lints (verify
                         errors always exit 2, with or without --deny)
    --json               Emit findings as a JSON array (one object per
                         finding: image, code, severity, method,
                         method_index, offset, message) instead of text
    --emit-facts FILE    Write the whole-image analysis facts artifact
                         (per-site resolution, receiver sets, call
                         graph, fuel bounds) as JSON to FILE
    --fuel               Also print each method's fuel estimates
                         (I001 own-frame, I002 interprocedural)
    --verbose            Also print info-severity lints (L001/L002/L006)
    --help               Print this help

EXIT STATUS:
    0  every image verified; no denied diagnostics
    1  a warning-severity lint under --deny
    2  a verify error (the image would be refused at load time)
    3  usage or I/O error

DIAGNOSTICS:
  Verify errors (always fatal — the image is refused at load time):
    V001  opcode not interned in the image
    V002  wild branch: target not provably in-bounds on a boundary
    V003  operand slot beyond the context geometry
    V004  constant operand beyond the method's constant table
    V005  trap handler (doesNotUnderstand:/badOperands:) with wrong arity
    V006  method declares more args than the context geometry holds
    V007  instruction word does not decode
    V008  method installed into a class the image does not define

  Lints (dataflow + whole-image class inference; severity in brackets):
    L001  [info]     unreachable code: no path from the method entry
    L002  [info]     dead store: overwritten on every path before any read
    L003  [warning]  use of a context slot that may be uninitialised
    L004  [warning]  send with constant operands that provably traps
                     (suppressed only when the inferred receiver set
                     installs a badOperands: handler)
    L005  [warning]  send guaranteed to hit doesNotUnderstand: — no
                     inferred receiver class understands the selector
                     (suppressed when every receiver installs a handler)
    L006  [info]     method unreachable from any entry point or
                     engine-invoked trap handler (needs --entry or a
                     workload target)
    I001  [info]     worst-case own-frame fuel estimate
    I002  [info]     worst-case interprocedural fuel (call-graph
                     composition of the I001 bounds)
";

struct Options {
    workloads: bool,
    stdlib: bool,
    deny: bool,
    json: bool,
    fuel: bool,
    verbose: bool,
    entries: Vec<String>,
    emit_facts: Option<String>,
    files: Vec<String>,
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        workloads: false,
        stdlib: false,
        deny: false,
        json: false,
        fuel: false,
        verbose: false,
        entries: Vec::new(),
        emit_facts: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--workloads" => opts.workloads = true,
            "--stdlib" => opts.stdlib = true,
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            "--fuel" => opts.fuel = true,
            "--verbose" | "-v" => opts.verbose = true,
            "--entry" => match args.next() {
                Some(name) => opts.entries.push(name),
                None => return Err("--entry needs a selector name".to_string()),
            },
            "--emit-facts" => match args.next() {
                Some(path) => opts.emit_facts = Some(path),
                None => return Err("--emit-facts needs a file path".to_string()),
            },
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other}"));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if !opts.workloads && !opts.stdlib && opts.files.is_empty() {
        opts.workloads = true;
        opts.stdlib = true;
    }
    Ok(Some(opts))
}

/// One target's outcome: the lint findings and analysis facts, or the
/// verify rejection.
struct Report {
    name: String,
    methods: usize,
    outcome: Result<(Vec<Diagnostic>, ImageFacts), VerifyError>,
}

fn lint_source(name: &str, source: &str, entries: &[String]) -> Result<Report, String> {
    let image = compile_com(source, CompileOptions::default())
        .map_err(|e| format!("{name}: compile error: {e}"))?;
    let answered = |entry: &String| {
        let selector = image.opcodes.get(entry);
        image.methods.iter().any(|m| Some(m.selector) == selector)
    };
    if let Some(entry) = entries.iter().find(|e| !answered(e)) {
        return Err(format!("{name}: --entry {entry} names no method"));
    }
    let outcome =
        ImageFacts::analyze_with(&image, entries).map(|facts| (lint_facts(&image, &facts), facts));
    Ok(Report {
        name: name.to_string(),
        methods: image.methods.len(),
        outcome,
    })
}

fn shown(d: &Diagnostic, opts: &Options) -> bool {
    match d.severity() {
        Severity::Warning => true,
        Severity::Info if matches!(d.code, DiagCode::FuelBound | DiagCode::InterFuel) => opts.fuel,
        Severity::Info => opts.verbose,
    }
}

fn finding_json(image: &str, d: &Diagnostic) -> String {
    let severity = match d.severity() {
        Severity::Warning => "warning",
        Severity::Info => "info",
    };
    format!(
        "{{\"image\": {}, \"code\": \"{}\", \"severity\": \"{}\", \"method\": {}, \"method_index\": {}, \"offset\": {}, \"message\": {}}}",
        json_str(image),
        d.code.code(),
        severity,
        json_str(&d.method.name),
        d.method
            .index
            .map(|i| i.to_string())
            .unwrap_or_else(|| "null".to_string()),
        d.offset
            .map(|o| o.to_string())
            .unwrap_or_else(|| "null".to_string()),
        json_str(&d.message),
    )
}

fn verify_error_json(image: &str, e: &VerifyError) -> String {
    format!(
        "{{\"image\": {}, \"code\": \"{}\", \"severity\": \"error\", \"method\": {}, \"method_index\": {}, \"offset\": {}, \"message\": {}}}",
        json_str(image),
        e.kind.code(),
        json_str(&e.method.name),
        e.method
            .index
            .map(|i| i.to_string())
            .unwrap_or_else(|| "null".to_string()),
        e.offset
            .map(|o| o.to_string())
            .unwrap_or_else(|| "null".to_string()),
        json_str(&e.kind.to_string()),
    )
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("vmlint: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(3);
        }
    };

    let mut reports: Vec<Report> = Vec::new();
    if opts.stdlib {
        match lint_source("stdlib", "", &opts.entries) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("vmlint: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if opts.workloads {
        for w in workloads::all() {
            // The workload's own entry selector (plus any --entry) roots
            // its call graph.
            let mut entries = opts.entries.clone();
            entries.push(w.entry.to_string());
            match lint_source(&format!("workload {}", w.name), w.source, &entries) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("vmlint: {e}");
                    return ExitCode::from(3);
                }
            }
        }
    }
    for file in &opts.files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("vmlint: {file}: {e}");
                return ExitCode::from(3);
            }
        };
        match lint_source(file, &source, &opts.entries) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("vmlint: {e}");
                return ExitCode::from(3);
            }
        }
    }

    // The facts artifact: one object per image, wrapped with a version.
    if let Some(path) = &opts.emit_facts {
        let mut out = String::from("{\n\"version\": 1,\n\"images\": [\n");
        let mut first = true;
        for report in &reports {
            if let Ok((_, facts)) = &report.outcome {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\": {}, \"facts\": {}}}",
                    json_str(&report.name),
                    facts.to_json()
                ));
            }
        }
        out.push_str("]\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("vmlint: {path}: {e}");
            return ExitCode::from(3);
        }
    }

    let mut verify_errors = 0usize;
    let mut warnings = 0usize;
    let mut infos = 0usize;
    let mut total_sites = 0usize;
    let mut total_live = 0usize;
    let mut total_mono = 0usize;
    let mut json_findings: Vec<String> = Vec::new();
    for report in &reports {
        match &report.outcome {
            Err(e) => {
                verify_errors += 1;
                if opts.json {
                    json_findings.push(verify_error_json(&report.name, e));
                } else {
                    println!("{}: error{e}", report.name);
                }
            }
            Ok((diags, facts)) => {
                total_sites += facts.summary.sites;
                total_live += facts.summary.live_sites;
                total_mono += facts.summary.monomorphic;
                let mut header = false;
                for d in diags {
                    match d.severity() {
                        Severity::Warning => warnings += 1,
                        Severity::Info => infos += 1,
                    }
                    if opts.json {
                        if shown(d, &opts) || d.severity() == Severity::Warning {
                            json_findings.push(finding_json(&report.name, d));
                        }
                    } else if shown(d, &opts) {
                        if !header {
                            println!("{} ({} methods):", report.name, report.methods);
                            header = true;
                        }
                        println!("  {d}");
                    }
                }
            }
        }
    }

    if opts.json {
        println!("[");
        for (i, f) in json_findings.iter().enumerate() {
            println!(
                "  {f}{}",
                if i + 1 < json_findings.len() { "," } else { "" }
            );
        }
        println!("]");
    } else {
        let images = reports.len();
        let pct = if total_live > 0 {
            100.0 * total_mono as f64 / total_live as f64
        } else {
            0.0
        };
        println!(
            "vmlint: {images} image{} checked, {verify_errors} verify error{}, \
             {warnings} warning{}, {infos} info finding{}; \
             {total_mono}/{total_live} live send sites monomorphic ({pct:.1}%, \
             {total_sites} total)",
            if images == 1 { "" } else { "s" },
            if verify_errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if infos == 1 { "" } else { "s" },
        );
    }
    if verify_errors > 0 {
        ExitCode::from(2)
    } else if opts.deny && warnings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
