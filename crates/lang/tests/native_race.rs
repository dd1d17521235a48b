//! Concurrent first requests for one native program must all get the
//! native engine: one build, one artifact, no thread left with a
//! memoized failure (which `Engine::Native` would silently turn into a
//! VM run for the life of that `Compiled`).
//!
//! The only `#[test]` in this binary: it points the process-global
//! `SKIL_NATIVE_CACHE_DIR` at a private directory.

use std::sync::Barrier;

use skil_lang::compile;

// A program no other test compiles, so neither the in-process module
// registry nor a shared on-disk artifact cache can already hold it.
const PROGRAM: &str = "int initf(Index ix) { return ix[0] * 29 + 3; }\n\
                       int conv(int v, Index ix) { return v; }\n\
                       void main() {\n\
                         array<int> a = array_create(1, {40,1}, {0,0}, {0-1,0-1}, initf, DISTR_DEFAULT);\n\
                         int s = array_fold(conv, max, a);\n\
                         if (procId == 0) { print(s); }\n\
                       }";

const THREADS: usize = 6;

#[test]
fn concurrent_first_compiles_share_one_artifact() {
    if std::process::Command::new("rustc").arg("--version").output().is_err() {
        eprintln!("skipping: no rustc on this host, the native engine is unavailable");
        return;
    }
    let dir = std::env::temp_dir().join(format!("skil-native-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SKIL_NATIVE_CACHE_DIR", &dir);

    // one `Compiled` per thread, as racing cache misses in `skild` make
    let programs: Vec<_> = (0..THREADS).map(|_| compile(PROGRAM).expect("compiles")).collect();
    let start = Barrier::new(THREADS);
    let ready: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .map(|c| {
                s.spawn(|| {
                    start.wait();
                    c.native_ready()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("prepare thread")).collect()
    });
    for (i, r) in ready.iter().enumerate() {
        assert!(r.is_ok(), "thread {i} lost the build race: {r:?}");
    }

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .collect();
    let artifacts = names.iter().filter(|n| n.ends_with(".so")).count();
    assert_eq!(artifacts, 1, "exactly one artifact, no stray temp files: {names:?}");
    assert!(!names.iter().any(|n| n.starts_with(".tmp-")), "temp files left behind: {names:?}");

    std::env::remove_var("SKIL_NATIVE_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
