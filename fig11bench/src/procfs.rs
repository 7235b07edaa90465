//! Process counters read from `/proc/self`: CPU time, page faults and the
//! resident-set high-water mark.

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`). Linux
/// exports 100 on every mainstream architecture.
pub const TICKS_PER_S: f64 = 100.0;

/// The CPU and fault counters of one `/proc/self/stat` reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcStat {
    /// Minor page faults (field 10).
    pub minflt: u64,
    /// User-mode CPU ticks of every thread of the process (field 14).
    pub utime: u64,
    /// Kernel-mode CPU ticks of every thread of the process (field 15).
    pub stime: u64,
}

impl ProcStat {
    /// Parses the text of `/proc/<pid>/stat`. The command name (field 2)
    /// is parenthesised and may itself hold spaces and parentheses, so the
    /// numeric fields are counted from the last `)`.
    pub fn parse(text: &str) -> Option<ProcStat> {
        let rest = &text[text.rfind(')')? + 1..];
        // `rest` starts at field 3 (state), so field k is index k - 3.
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |k: usize| fields.get(k - 3)?.parse::<u64>().ok();
        Some(ProcStat { minflt: field(10)?, utime: field(14)?, stime: field(15)? })
    }

    /// Reads this process's counters.
    pub fn read() -> ProcStat {
        let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        ProcStat::parse(&text).expect("/proc/self/stat has the documented layout")
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }

    /// Adds another delta to this one.
    pub fn add(&mut self, other: &ProcStat) {
        self.minflt += other.minflt;
        self.utime += other.utime;
        self.stime += other.stime;
    }
}

/// Parses the `VmHWM` line of `/proc/<pid>/status` (in KiB) into MB of
/// 10^6 bytes.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..].trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// The peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_mb(&text).expect("/proc/self/status reports VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_fields_after_the_command_name() {
        let text = "4242 (fig11 (x) y) R 1 4242 4242 0 -1 4194304 \
                    1234 0 7 0 567 89 0 0 20 0 3 0 100 1000 200\n";
        let s = ProcStat::parse(text).unwrap();
        assert_eq!(s, ProcStat { minflt: 1234, utime: 567, stime: 89 });
        assert!((s.cpu_s() - 6.56).abs() < 1e-9);
    }

    #[test]
    fn rejects_truncated_stat() {
        assert_eq!(ProcStat::parse("1 (a) R 1 2 3"), None);
        assert_eq!(ProcStat::parse("no parenthesis"), None);
    }

    #[test]
    fn deltas_saturate_and_add() {
        let a = ProcStat { minflt: 10, utime: 5, stime: 1 };
        let b = ProcStat { minflt: 15, utime: 9, stime: 1 };
        let mut d = b.since(&a);
        assert_eq!(d, ProcStat { minflt: 5, utime: 4, stime: 0 });
        assert_eq!(a.since(&b), ProcStat::default());
        d.add(&d.clone());
        assert_eq!(d.utime, 8);
    }

    #[test]
    fn reads_this_process() {
        assert!(ProcStat::read().utime + ProcStat::read().stime < u64::MAX);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2000 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(2.048));
        assert_eq!(parse_vm_hwm_mb("VmRSS: 1 kB\n"), None);
    }
}
