//! Host-speed calibration. The sandbox is a few cores of a shared host whose
//! neighbours slow memory-bound work by up to half for minutes at a time and
//! by a tenth from one second to the next, so a wall-clock time says as much
//! about the neighbours as about the program. Between any two pieces of timed
//! work the harness therefore runs one pass of a fixed kernel of its own, and
//! states every time in *reference-box* units: the measured time scaled by
//! how much slower or faster than nominal the kernel ran just before and just
//! after. The kernel is benchmark code, the same at every commit, so two
//! commits are still compared like with like; what cancels is the host.

use std::collections::BTreeMap;
use std::time::Instant;

/// Milliseconds one kernel pass takes on the quiet reference box (2 vCPUs of
/// a 2.1 GHz Xeon). It only fixes the scale: with it, calibrated values read
/// as that box's milliseconds.
pub const NOMINAL_MS: f64 = 14.0;

/// Keys one kernel pass aggregates.
const KEYS: usize = 40_000;

/// One pass of the kernel: aggregate [`KEYS`] pseudo-random composite keys
/// into an ordered map of counters, clone the map, serialise the clone and
/// merge it back — the store's own kind of work (ordered-map inserts,
/// allocation, copying about 2.5 MB three times over), so it slows when the store would. The
/// keys are the same every pass. Returns a checksum of the serialised bytes,
/// so the work cannot be optimised away and tests can see it repeat.
fn kernel_pass() -> u64 {
    let mut x: u64 = 88_172_645_463_325_252;
    let mut map: BTreeMap<(u32, u32, u32), [u64; 6]> = BTreeMap::new();
    for _ in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (
            (x >> 40) as u32 & 0xff,
            (x >> 20) as u32 & 0xfff,
            x as u32 & 0x3ff,
        );
        let cell = map.entry(key).or_insert([0; 6]);
        cell[0] += 1;
        cell[1] += x & 0xffff;
    }
    let copy = map.clone();
    let mut bytes: Vec<u8> = Vec::new();
    for (key, cell) in &copy {
        for part in [key.0, key.1, key.2] {
            bytes.extend_from_slice(&part.to_le_bytes());
        }
        for word in cell {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    for (key, cell) in copy {
        map.entry(key).or_insert([0; 6])[0] += cell[0];
    }
    let sum = bytes
        .iter()
        .fold(map.len() as u64, |s, &b| s.rotate_left(5) ^ u64::from(b));
    std::hint::black_box(sum)
}

/// Runs the kernel between pieces of timed work and says how fast the host
/// was during each.
#[derive(Debug)]
pub struct Calibrator {
    /// Milliseconds of the newest pass, the "before" of the work that
    /// follows; `None` when calibration is off.
    last_ms: Option<f64>,
}

impl Calibrator {
    /// A calibrator that has just taken its first reading (after one pass to
    /// fault its memory in).
    pub fn on() -> Calibrator {
        kernel_pass();
        Calibrator {
            last_ms: Some(pass_ms()),
        }
    }

    /// A calibrator that runs nothing and calls every speed 1: a traced run
    /// reports what the clock said.
    pub fn off() -> Calibrator {
        Calibrator { last_ms: None }
    }

    /// Call between two pieces of timed work: runs one kernel pass and
    /// returns the host's speed during the work since the previous call —
    /// nominal kernel time ÷ the mean of the pass before that work and the
    /// pass after it (1 on the quiet reference box, 0.7 when the host runs
    /// 30 % slow). A time measured during that work, times this speed, is
    /// that time on the reference box; a rate is divided by it.
    pub fn mark(&mut self) -> f64 {
        let Some(before) = self.last_ms else {
            return 1.0;
        };
        let after = pass_ms();
        self.last_ms = Some(after);
        NOMINAL_MS / ((before + after) / 2.0)
    }
}

/// Milliseconds of one kernel pass.
fn pass_ms() -> f64 {
    let t = Instant::now();
    kernel_pass();
    t.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_does_the_same_work() {
        assert_eq!(kernel_pass(), kernel_pass());
    }

    #[test]
    fn speed_is_nominal_over_the_mean_of_the_two_passes() {
        let mut cal = Calibrator { last_ms: Some(1e9) };
        let speed = cal.mark();
        // The pass before took "forever": the mean is half of that, whatever
        // the real pass after it took.
        let after = cal.last_ms.expect("calibration is on");
        assert_eq!(speed, NOMINAL_MS / ((1e9 + after) / 2.0));
        let speed = Calibrator::on().mark();
        assert!(speed.is_finite() && speed > 0.0);
    }

    #[test]
    fn off_runs_nothing_and_calls_every_speed_one() {
        let mut cal = Calibrator::off();
        assert_eq!((cal.mark(), cal.mark()), (1.0, 1.0));
    }
}
