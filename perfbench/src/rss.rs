//! Peak resident set of the measured part of a run.
//!
//! A run first prepares its inputs and references, which the engine
//! never sees; [`reset_peak`] then drops the process's high-water mark
//! to its current resident set, so [`peak_mb`] covers the measured
//! cycles only. Worker processes are counted through
//! [`largest_child_mb`].

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s,
/// the first of which is `ru_maxrss` in kB.
#[repr(C)]
struct Rusage([i64; 18]);

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `RUSAGE_CHILDREN`: terminated, waited-for child processes.
const RUSAGE_CHILDREN: i32 = -1;

/// Returns freed heap memory to the system, then resets the peak
/// resident set (`VmHWM`) to the current one.
pub fn reset_peak() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// This process's peak resident set since the last [`reset_peak`], in
/// MB.
pub fn peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The largest peak resident set of any child process this process
/// has waited for, in MB.
pub fn largest_child_mb() -> Result<f64, String> {
    let mut u = Rusage([0; 18]);
    // SAFETY: `u` has the layout of `struct rusage`.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut u) } != 0 {
        return Err("getrusage failed".into());
    }
    Ok(u.0[4] as f64 / 1024.0)
}
