//! `repro` CLI regressions that need a real process boundary.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn bad_checkpoint_dir_fails_fast_with_exit_2() {
    // A typo'd --checkpoint-dir parent used to surface only at the first
    // checkpoint write, after the whole world build and part of a
    // campaign. It must now fail up front, before any study work.
    let missing = std::env::temp_dir().join("ipv6web-no-such-parent").join("ckpt");
    assert!(!missing.parent().unwrap().exists(), "parent must not exist for this test");
    let start = std::time::Instant::now();
    let out = repro()
        .args(["all", "--checkpoint-dir", missing.to_str().unwrap()])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot be created") && stderr.contains("does not exist"),
        "expected a readable checkpoint-dir message, got: {stderr}"
    );
    assert!(
        !stderr.contains("running study"),
        "validation must happen before the study starts: {stderr}"
    );
    // failing fast is the point: no world build, no campaign
    assert!(start.elapsed().as_secs() < 30, "took {:?}", start.elapsed());
}

#[test]
fn checkpoint_path_that_is_a_file_fails_fast() {
    let file = std::env::temp_dir().join(format!("ipv6web-ckpt-file-{}", std::process::id()));
    std::fs::write(&file, b"in the way").unwrap();
    let out = repro()
        .args(["all", "--checkpoint-dir", file.to_str().unwrap()])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not a directory"), "unexpected message: {stderr}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn unknown_scale_still_exits_2() {
    let out = repro().args(["all", "--scale", "galactic"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scale"));
    // the error enumerates every accepted scale, nat64 and panel included
    for scale in ["quick", "paper", "faults", "internet", "internet-smoke", "nat64", "panel"] {
        assert!(stderr.contains(scale), "error must offer `{scale}`: {stderr}");
    }
}

#[test]
fn unwritable_output_paths_fail_fast_with_exit_2() {
    // An output path that cannot be written used to panic at the write,
    // after the whole study had run. Each must now fail up front.
    let tmp = std::env::temp_dir();
    let file = tmp.join(format!("ipv6web-out-file-{}", std::process::id()));
    std::fs::write(&file, b"in the way").unwrap();
    let missing = tmp.join("ipv6web-no-such-parent").join("out.json");
    assert!(!missing.parent().unwrap().exists(), "parent must not exist for this test");
    let under_file = file.join("out.json");
    let cases: [(&str, &std::path::Path, &str); 5] = [
        ("--json", &missing, "does not exist"),
        ("--json", &tmp, "is a directory"),
        ("--metrics", &under_file, "is not a directory"),
        ("--csv", &file, "is not a directory"),
        ("--csv", &under_file, "is not a directory"),
    ];
    for (flag, path, why) in cases {
        let out = repro().args(["all", flag, path.to_str().unwrap()]).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {}: {stderr}", path.display());
        assert!(
            stderr.contains(flag)
                && stderr.contains(path.to_str().unwrap())
                && stderr.contains(why),
            "expected a message naming {flag} {} ({why}), got: {stderr}",
            path.display()
        );
        assert!(
            !stderr.contains("running study") && out.stdout.is_empty(),
            "validation must happen before the study starts: {stderr}"
        );
    }
    std::fs::remove_file(&file).ok();
}
