//! Bakes the compiler version and, when built from a git checkout, the
//! commit into the binary for the provenance line of every result.

use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = output_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
}
