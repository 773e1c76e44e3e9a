//! Records the compiler version and build profile for the report header.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=PLBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PLBENCH_PROFILE={}", var("PROFILE"));
    println!("cargo:rustc-env=PLBENCH_OPT_LEVEL={}", var("OPT_LEVEL"));
    println!("cargo:rerun-if-changed=build.rs");
}
