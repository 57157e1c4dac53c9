//! Where a number was measured: the provenance block, the environment
//! guard and the process's peak resident set.

use std::process::Command;

/// The `HWPR_*` variables set in the environment. Every such knob changes
/// what the program does (threads, batch sizes, precision, islands,
/// serving limits, telemetry), so a run with any of them set would not
/// measure the defaults the benchmark is defined on.
pub fn hwpr_overrides() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HWPR_"))
        .collect();
    names.sort();
    names
}

/// The provenance block as one JSON object.
pub fn provenance_json(seed: u64, workload: &str) -> String {
    let (commit, dirty) = git_state();
    let features = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("avx512vnni", cfg!(target_feature = "avx512vnni")),
    ];
    let features = features
        .iter()
        .map(|(name, on)| format!("\"{name}\": {on}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"provenance\": {{\"commit\": \"{commit}\", \"dirty\": {dirty}, \"cpu\": \"{}\", \
         \"nproc\": {}, \"target_features\": {{{features}}}, \"profile\": \"{}\", \
         \"workload\": \"{workload}\", \"seed\": {seed}}}}}",
        cpu_model().replace(['"', '\\'], ""),
        nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(commit, dirty)` of the checkout in the working directory. Git is
/// consulted only when the working directory itself is a repository, so
/// the benchmark never looks outside its checkout; elsewhere the commit
/// reads `unknown`.
fn git_state() -> (String, bool) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".to_string(), false);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .env("GIT_DIR", ".git")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    (commit, dirty)
}

/// The CPU brand string from `cpuid` (no file is read).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // the brand string spans leaves 0x8000_0002..=0x8000_0004 when the
    // extended range reaches them
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// Peak resident set size of this process so far, in MiB (`ru_maxrss`).
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }

    /// `struct rusage` of Linux: two timevals, then fourteen longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: c_long,
        rest: [c_long; 13],
    }

    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_SELF: c_int = 0;

    let mut usage = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `usage` is a writable, properly aligned buffer laid out as
    // Linux's `struct rusage`; getrusage only writes into it, and it is
    // read only after the call reports success.
    let rc = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) };
    if rc != 0 {
        return f64::NAN;
    }
    // SAFETY: getrusage succeeded, so every field was written (and the
    // buffer was zero-initialised before the call in any case).
    let usage = unsafe { usage.assume_init() };
    usage.maxrss as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_is_one_json_object_with_every_field() {
        let p = provenance_json(7, "train");
        for key in [
            "commit",
            "dirty",
            "cpu",
            "nproc",
            "avx2",
            "fma",
            "avx512f",
            "avx512vnni",
            "profile",
            "seed",
        ] {
            assert!(p.contains(&format!("\"{key}\"")), "{key} missing: {p}");
        }
        assert_eq!(p.matches('{').count(), p.matches('}').count());
    }

    #[test]
    fn peak_rss_is_positive() {
        let rss = peak_rss_mb();
        assert!(rss > 0.0 || rss.is_nan());
    }
}
