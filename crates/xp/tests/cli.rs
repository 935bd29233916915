//! CLI boundary: a bad flag makes an experiment binary exit with status 2
//! and a usage message before it opens any output file.

use std::process::Command;

#[test]
fn invalid_arguments_exit_2_before_writing_results() {
    let out = std::env::temp_dir().join(format!("rgae-cli-test-{}", std::process::id()));
    for bad in [
        &["--dataset", "bogus"][..],
        &["--seed", "abc"],
        &["--scale", "nan"],
        &["--no-such-flag"],
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_table1_2"))
            .args(bad)
            .arg("--out")
            .arg(&out)
            .output()
            .expect("spawn table1_2");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("usage: "), "{bad:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bad:?}: {stderr}");
        assert!(!out.exists(), "{bad:?} created {}", out.display());
    }
}
