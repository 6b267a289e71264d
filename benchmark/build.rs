//! Records the compiler and code-generation flags this binary was built
//! with, for the metadata line every invocation prints.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    // Flags arrive separated by 0x1f; `-C target-cpu=X` is either one flag
    // or two.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .find_map(|flag| flag.rsplit_once("target-cpu=").map(|(_, cpu)| cpu))
        .unwrap_or("generic");
    println!("cargo:rustc-env=BENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
