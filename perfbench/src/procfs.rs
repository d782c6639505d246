//! Process counters read from `/proc/self` (Linux), and CPU pinning.
//!
//! Every figure here is measured by the kernel, not modelled: peak resident
//! memory, CPU time of all threads, voluntary context switches of the
//! calling thread and bytes handed to `write`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, which
/// Linux fixes at 100 for user space on every architecture it supports).
const USER_HZ: f64 = 100.0;

fn field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of the process (`VmHWM`), in bytes.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    field("/proc/self/status", "VmHWM").map(|kb| kb * 1024)
}

/// Voluntary context switches of the calling thread.
#[must_use]
pub fn thread_voluntary_switches() -> Option<u64> {
    field("/proc/thread-self/status", "voluntary_ctxt_switches")
}

/// Bytes the process has passed to write-like system calls (`wchar`).
#[must_use]
pub fn bytes_written() -> Option<u64> {
    field("/proc/self/io", "wchar")
}

/// User plus system CPU time of every thread of the process, in seconds.
#[must_use]
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name, `state` is field 3 of stat(5); utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Ticks the host ran something else while this machine's CPUs wanted to
/// run (`steal`), and all ticks, summed over CPUs (`/proc/stat`).
#[must_use]
pub fn steal_and_total_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Processors this process may run on.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on now; returns that CPU. The
/// library's thread pool sizes itself from the affinity, so it then has
/// one thread.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, the size of the
    // `cpu_set_t` the call fills; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask holds no CPU")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes holding a
    // `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_move() {
        let rss = peak_rss_bytes().expect("VmHWM");
        assert!(rss > 0);
        let before = process_cpu_seconds().expect("stat");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds().expect("stat") > before);
        assert!(thread_voluntary_switches().is_some());
        let w0 = bytes_written().expect("io");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tmp-io-test-{}", std::process::id()));
        fs::write(&path, [0u8; 4096]).unwrap();
        fs::remove_file(&path).unwrap();
        assert!(bytes_written().expect("io") >= w0 + 4096);
        assert!(nproc() >= 1);
        let (steal, total) = steal_and_total_ticks().expect("/proc/stat");
        assert!(total > 0 && steal <= total);
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        // On a thread of its own, so no other test is pinned.
        std::thread::spawn(|| {
            pin_to_one_cpu().expect("pin");
            assert_eq!(nproc(), 1);
            assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}
