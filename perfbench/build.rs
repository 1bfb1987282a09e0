//! Records provenance for every benchmark record: the compiler that built
//! the benchmark, the git commit when built from a clone, and a digest of
//! the engine sources (which also identifies a checkout without git).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // Only a clone of this repository has a commit; a plain source
    // checkout (or one nested in another repository) reports "unknown".
    let commit = Some(root.join(".git"))
        .filter(|git| git.exists())
        .and_then(|_| {
            Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());

    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(&root.join(top), &mut files);
        println!("cargo:rerun-if-changed=../{top}");
    }
    files.sort();
    // FNV-1a over (relative path, contents) of every engine source file.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={h:016x}");
}

/// Every `.rs`/`.toml`/`.lock` file under `path`, skipping build output.
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        } else if p
            .extension()
            .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
        {
            out.push(p);
        }
    }
}
