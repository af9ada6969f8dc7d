//! The `vmlint` binary's command line.

use std::process::Command;

#[test]
fn an_entry_that_names_no_method_is_a_usage_error() {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vmlint_entry.st");
    std::fs::write(
        &file,
        "class SmallInteger\n  method double ^self + self end\n  method quad ^self double double end\nend\n",
    )
    .expect("write the program");
    let vmlint = |entries: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_vmlint"));
        for entry in entries {
            cmd.args(["--entry", entry]);
        }
        cmd.arg("--verbose")
            .arg(&file)
            .output()
            .expect("vmlint runs")
    };

    let valid = vmlint(&["quad"]);
    assert_eq!(valid.status.code(), Some(0), "{valid:?}");

    let unknown = vmlint(&["quad", "nosuch"]);
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert_eq!(unknown.status.code(), Some(3), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{}: --entry nosuch names no method",
            file.display()
        )),
        "{stderr}"
    );
    assert!(unknown.stdout.is_empty(), "no image is reported");
}
