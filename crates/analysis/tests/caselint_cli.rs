//! End-to-end checks of the `caselint` binary: flag precedence and the
//! directory walk.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A case whose only finding is CK104: `g4` is an idle premise.
const IDLE_PREMISE: &str = r#"argument "red" {
  goal g1 "q holds" formal "q" {
    goal g2 "p holds" formal "p" { solution e1 "sensor log" }
    goal g3 "rule" formal "p -> q" { solution e2 "design review" }
    goal g4 "red herring" formal "r" { solution e3 "unrelated memo" }
  }
}
"#;

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn caselint(args: &[&str], path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caselint"))
        .args(args)
        .arg(path)
        .output()
        .expect("caselint runs")
}

#[test]
fn allow_overrides_deny_in_either_order() {
    let dir = scratch("caselint_flag_order");
    let file = dir.join("red.case");
    std::fs::write(&file, IDLE_PREMISE).unwrap();

    let denied = caselint(&["--deny"], &file);
    assert_eq!(denied.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&denied.stdout).contains("error[CK104]"));

    for args in [
        ["--allow", "CK104", "--deny"],
        ["--deny", "--allow", "CK104"],
    ] {
        let out = caselint(&args, &file);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
    let out = caselint(&["--level", "CK104=warn", "--deny"], &file);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("warning[CK104]"));
}

#[cfg(unix)]
#[test]
fn directory_walk_skips_symlinked_directories() {
    let dir = scratch("caselint_symlink_loop");
    for i in 0..3 {
        let src = IDLE_PREMISE.replace("\"red\"", &format!("\"red{i}\""));
        std::fs::write(dir.join(format!("c{i}.case")), src).unwrap();
    }
    std::os::unix::fs::symlink(".", dir.join("self")).unwrap();
    let out = caselint(&[], &dir);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("3 file(s), 3 diagnostic(s)"),
        "stderr: {stderr}"
    );
}
