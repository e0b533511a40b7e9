//! The machine a result came from, and the process's peak memory.
//! Results from different fingerprints are not like for like.

use std::hint::black_box;
use std::time::Instant;

/// `nproc`, CPU model and the speed of a fixed calibration loop.
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Fastest of seven runs of [`calibration_loop`], nanoseconds: the
    /// machine's speed with the least interference from other load.
    pub calib_ns: u64,
}

/// A fixed integer loop whose time tracks single-core speed.
fn calibration_loop() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..20_000_000u64 {
        x = black_box(x.rotate_left(7) ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    x
}

impl Fingerprint {
    /// Measures this machine.
    pub fn measure() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let calib_ns = (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(calibration_loop());
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("seven runs");
        Fingerprint {
            nproc,
            cpu_model,
            calib_ns,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":\"{}\",\"calib_ns\":{}}}",
            self.nproc,
            self.cpu_model.replace(['"', '\\'], "'"),
            self.calib_ns
        )
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
