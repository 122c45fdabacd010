//! One CPU for everything that is gated. The build host is a two-vCPU
//! Firecracker guest on which a wake-up across vCPUs costs more than the
//! second vCPU buys: confined to one vCPU every workload ran *faster*
//! (serve-pipelined +24 %, serve-interleaved +21 %, stream-drain +12 %, in
//! alternating pairs of runs) and identical runs agreed better, because work
//! that needs both vCPUs at once stalls whenever the host takes either away.
//! So before it spawns a thread the process restricts itself to the first
//! CPU it is allowed on; client, reactor and drain workers then share that
//! CPU, and the gated figures say what the code costs rather than where the
//! scheduler put it.
//!
//! That is a stated limit of the gated run: no two threads ever run at once,
//! so what a second CPU buys — or what contention on it costs — cannot show
//! there. The traced pass measures it instead, without a bound: inside
//! [`on_all_cpus`] every thread is back on all the CPUs the process started
//! with, for `harness.all_cpus_speedup` and the two `*_parallel_speedup`s.
//!
//! This needs `sched_setaffinity`, and the build is offline with no `libc`
//! crate, so the two calls are declared here against the C library `std`
//! already links. Off Linux, or if the kernel refuses, nothing is confined
//! and the report says so.

/// Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

#[cfg(target_os = "linux")]
extern "C" {
    // int sched_getaffinity(pid_t pid, size_t cpusetsize, cpu_set_t *mask);
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    // int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs thread `tid` (0: the calling thread) may run on.
#[cfg(target_os = "linux")]
fn allowed(tid: i32) -> Option<CpuSet> {
    let mut set = [0u64; WORDS];
    // SAFETY: `set` is writable for exactly the `size_of_val(&set)` bytes
    // the call is told about.
    let read = unsafe { sched_getaffinity(tid, std::mem::size_of_val(&set), set.as_mut_ptr()) };
    (read == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn allow(tid: i32, set: &CpuSet) -> bool {
    // SAFETY: `set` is readable for exactly the `size_of_val(set)` bytes the
    // call is told about.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(set), set.as_ptr()) == 0 }
}

/// Applies `set` to every live thread of the process; threads spawned later
/// inherit it from their parent.
#[cfg(target_os = "linux")]
fn allow_every_thread(set: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        allow(0, set);
        return;
    };
    for tid in tasks.filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok()) {
        // A thread may have exited since the listing; nothing to confine.
        allow(tid, set);
    }
}

/// The process confined to one CPU, remembering what it was allowed before.
pub struct Confinement {
    cpu: usize,
    before: CpuSet,
    only: CpuSet,
}

/// Restricts the calling thread — and every thread spawned from now on,
/// which inherits the mask — to the first CPU it may run on. `None` if
/// nothing was changed (off Linux, or the kernel refused).
pub fn confine_to_one_cpu() -> Option<Confinement> {
    #[cfg(target_os = "linux")]
    {
        let before = allowed(0)?;
        let cpu = (0..WORDS * 64).find(|cpu| before[cpu / 64] >> (cpu % 64) & 1 == 1)?;
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        allow(0, &only).then_some(Confinement { cpu, before, only })
    }
    #[cfg(not(target_os = "linux"))]
    None
}

impl Confinement {
    pub fn cpu(&self) -> usize {
        self.cpu
    }

    /// How many CPUs the process was allowed before it confined itself.
    pub fn cpus_before(&self) -> u32 {
        self.before.iter().map(|word| word.count_ones()).sum()
    }
}

/// Runs `work` with every thread of the process — those alive now and those
/// `work` spawns — back on all the CPUs the process started with, then
/// confines them all again. This is how the traced pass measures what the
/// other CPUs buy (`harness.all_cpus_speedup`, the two `*_parallel_speedup`s)
/// while everything gated stays on one. Unconfined, it just runs `work`.
pub fn on_all_cpus<T>(confinement: Option<&Confinement>, work: impl FnOnce() -> T) -> T {
    #[cfg(target_os = "linux")]
    if let Some(confinement) = confinement {
        allow_every_thread(&confinement.before);
        let done = work();
        allow_every_thread(&confinement.only);
        return done;
    }
    #[cfg(not(target_os = "linux"))]
    let _ = confinement;
    work()
}

#[cfg(test)]
mod tests {
    // Affinity is per thread, so confining a thread of the test's own
    // disturbs no other test. (`on_all_cpus` touches every thread of the
    // process and is exercised by `--smoke` instead.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_confined_thread_and_its_children_stay_on_one_cpu() {
        let confined = || super::confine_to_one_cpu().map(|c| (c.cpu(), c.cpus_before()));
        let (first, again, inherited) = std::thread::spawn(move || {
            let first = confined();
            let again = confined();
            let inherited = std::thread::spawn(confined).join().expect("child thread");
            (first, again, inherited)
        })
        .join()
        .expect("test thread");
        let (cpu, before) = first.expect("Linux lets a thread confine itself");
        assert!(before >= 1);
        assert_eq!(again, Some((cpu, 1)), "already confined: the same CPU");
        assert_eq!(
            inherited,
            Some((cpu, 1)),
            "a child starts on its parent's mask"
        );
    }
}
