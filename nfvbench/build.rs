//! Records the compiler version and, when built from a git checkout, the
//! commit, so every result line names the build that produced it.

use std::path::Path;
use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=NFVBENCH_RUSTC={version}");

    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=NFVBENCH_COMMIT={commit}");

    println!("cargo:rerun-if-changed=build.rs");
    // Re-run on a new commit only where there is a git checkout; a
    // missing path would make cargo re-run the script on every build.
    for head in ["../.git/HEAD", "../.git/index"] {
        if Path::new(head).exists() {
            println!("cargo:rerun-if-changed={head}");
        }
    }
}
