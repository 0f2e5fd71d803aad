//! The measured phase's clock: when it stops, the fixed-length windows its
//! rates are medians over, and the yardstick reading that goes with each
//! window.

use std::time::{Duration, Instant};

use crate::stats::{median, ratio, sorted};
use crate::yardstick::Yardstick;

/// When a measured phase stops: at the deadline, after `max_ops`
/// operations, or when the inputs run out — whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Wall-clock budget.
    pub seconds: f64,
    /// Operation budget (the tests' deterministic stop; the command line
    /// never sets it).
    pub max_ops: u64,
}

impl Limits {
    /// A purely time-bounded phase.
    #[must_use]
    pub fn seconds(seconds: f64) -> Limits {
        Limits {
            seconds,
            max_ops: u64::MAX,
        }
    }
}

/// One slice of a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Membership events (or ops) completed in the window.
    pub events: u64,
    /// Payloads flushed in the window.
    pub payloads: u64,
    /// The window's wall length; the yardstick's own time is not in it.
    pub seconds: f64,
    /// The host's slowdown over the window: the mean of the yardstick
    /// readings taken just before and just after it (1.0 without a
    /// yardstick).
    pub slowdown: f64,
}

/// One latency sample: what the wall clock said, and the window it was
/// taken in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index of the window among all of the phase's windows.
    pub window: usize,
    /// Wall milliseconds.
    pub wall_ms: f64,
}

/// Wall time and complete windows of a finished phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timing {
    /// Wall time of the whole phase, yardstick included.
    pub wall_s: f64,
    /// Complete windows, in order.
    pub windows: Vec<Window>,
}

impl Timing {
    /// Appends a later phase's timing to this one.
    pub fn absorb(&mut self, later: Timing) {
        self.wall_s += later.wall_s;
        self.windows.extend(later.windows);
    }

    /// The median over windows of `count` per *nominal* second: the
    /// window's wall rate times the host's slowdown over that window. A
    /// phase shorter than one window falls back to `total / wall_s`.
    #[must_use]
    pub fn nominal_rate(&self, count: impl Fn(&Window) -> u64, total: u64) -> f64 {
        if self.windows.is_empty() {
            return ratio(total as f64, self.wall_s);
        }
        let rates = self
            .windows
            .iter()
            .map(|w| count(w) as f64 / w.seconds * w.slowdown)
            .collect();
        median(&sorted(rates))
    }

    /// The samples in nominal milliseconds, ascending: each one's wall
    /// time divided by the host's slowdown over its window. Samples of the
    /// phase's unfinished last window, which has no closing yardstick
    /// reading, are left out.
    #[must_use]
    pub fn nominal_ms(&self, samples: &[Sample]) -> Vec<f64> {
        sorted(
            samples
                .iter()
                .filter_map(|s| Some(s.wall_ms / self.windows.get(s.window)?.slowdown))
                .collect(),
        )
    }

    /// The windows' slowdowns, ascending.
    #[must_use]
    pub fn slowdowns(&self) -> Vec<f64> {
        sorted(self.windows.iter().map(|w| w.slowdown).collect())
    }
}

/// A window's wall length. Short enough that a 15 s phase has 50-odd of
/// them and the host's state is sampled four times a second; long enough
/// that the yardstick's quantum between two windows costs 4 % of the phase
/// and that the slowest workload fits ~10 churn events in one.
const WINDOW: Duration = Duration::from_millis(250);

/// Closes windows, reads the yardstick between them, and tells the loop
/// when the phase is over.
#[derive(Debug)]
pub struct Clock<'y> {
    started: Instant,
    deadline: Instant,
    max_ops: u64,
    window_start: Instant,
    window_events: u64,
    window_payloads: u64,
    slowdown_before: f64,
    windows_before: usize,
    windows: Vec<Window>,
    yardstick: Option<&'y mut Yardstick>,
}

impl<'y> Clock<'y> {
    /// Starts the clock. `events` and `payloads` are the running totals at
    /// this moment and `windows_before` the windows already closed (a phase
    /// may continue an earlier one). With a yardstick, one quantum runs
    /// first, inside the phase's budget.
    #[must_use]
    pub fn start(
        limits: Limits,
        events: u64,
        payloads: u64,
        windows_before: usize,
        mut yardstick: Option<&'y mut Yardstick>,
    ) -> Clock<'y> {
        let started = Instant::now();
        let slowdown_before = yardstick.as_deref_mut().map_or(1.0, |y| y.slowdown(1));
        Clock {
            started,
            deadline: started + Duration::from_secs_f64(limits.seconds),
            max_ops: limits.max_ops,
            window_start: Instant::now(),
            window_events: events,
            window_payloads: payloads,
            slowdown_before,
            windows_before,
            windows: Vec::new(),
            yardstick,
        }
    }

    /// The index of the running window among all of the phase's windows.
    #[must_use]
    pub fn window(&self) -> usize {
        self.windows_before + self.windows.len()
    }

    /// Closes the running window at `now` with the yardstick reading
    /// `slowdown_after`.
    fn close_window(&mut self, now: Instant, events: u64, payloads: u64, slowdown_after: f64) {
        self.windows.push(Window {
            events: events - self.window_events,
            payloads: payloads - self.window_payloads,
            seconds: (now - self.window_start).as_secs_f64(),
            slowdown: (self.slowdown_before + slowdown_after) / 2.0,
        });
        self.window_events = events;
        self.window_payloads = payloads;
        self.slowdown_before = slowdown_after;
    }

    /// Called before each operation with the operations done since the
    /// clock started and the running totals. Closes the running window when
    /// it is full (reading the yardstick between it and the next one), and
    /// returns the instant the next operation is issued at, or `None` once
    /// the phase is over.
    pub fn proceed(&mut self, ops: u64, events: u64, payloads: u64) -> Option<Instant> {
        let mut now = Instant::now();
        if now - self.window_start >= WINDOW && events > self.window_events {
            let slowdown = self.yardstick.as_deref_mut().map_or(1.0, |y| y.slowdown(1));
            self.close_window(now, events, payloads, slowdown);
            now = Instant::now();
            self.window_start = now;
        }
        (now < self.deadline && ops < self.max_ops).then_some(now)
    }

    /// Stops the clock. The unfinished last window is dropped.
    #[must_use]
    pub fn finish(self) -> Timing {
        Timing {
            wall_s: self.started.elapsed().as_secs_f64(),
            windows: self.windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(events: u64, seconds: f64, slowdown: f64) -> Window {
        Window {
            events,
            payloads: events * 8,
            seconds,
            slowdown,
        }
    }

    #[test]
    fn nominal_rate_cancels_the_hosts_slowdown() {
        // The same program on a host that ran at half speed in two windows.
        let timing = Timing {
            wall_s: 6.5,
            windows: vec![
                w(100, 1.0, 1.0),
                w(100, 2.0, 2.0),
                w(100, 1.0, 1.0),
                w(100, 2.0, 2.0),
            ],
        };
        assert_eq!(timing.nominal_rate(|w| w.events, 400), 100.0);
        assert_eq!(timing.nominal_rate(|w| w.payloads, 3200), 800.0);
        let sample = |window, wall_ms| Sample { window, wall_ms };
        let samples = [sample(1, 10.0), sample(0, 7.0), sample(4, 1.0)];
        assert_eq!(timing.nominal_ms(&samples), vec![5.0, 7.0]);
        assert_eq!(timing.slowdowns(), vec![1.0, 1.0, 2.0, 2.0]);
        // A program twice as slow on a steady host is not cancelled.
        let slower = Timing {
            wall_s: 4.0,
            windows: vec![w(100, 2.0, 1.0), w(100, 2.0, 1.0)],
        };
        assert_eq!(slower.nominal_rate(|w| w.events, 200), 50.0);
        let short = Timing {
            wall_s: 0.5,
            windows: Vec::new(),
        };
        assert_eq!(short.nominal_rate(|w| w.events, 10), 20.0);
    }

    #[test]
    fn windows_carry_the_mean_of_the_readings_around_them() {
        // Continues a phase that had seen 10 events, 80 payloads, 3 windows.
        let limits = Limits {
            seconds: 1000.0,
            max_ops: 3,
        };
        let mut clock = Clock::start(limits, 10, 80, 3, None);
        assert_eq!(clock.window(), 3);
        assert_eq!(clock.slowdown_before, 1.0);
        let t0 = clock.window_start;
        clock.close_window(t0 + Duration::from_secs(2), 12, 96, 2.0);
        assert_eq!(clock.window(), 4);
        clock.close_window(t0 + Duration::from_secs(2), 12, 96, 1.0);
        let timing = clock.finish();
        assert_eq!(timing.windows[0], w(2, 2.0, 1.5));
        assert_eq!(timing.windows[1].slowdown, 1.5);
    }

    #[test]
    fn clock_stops_on_the_op_budget_and_reads_the_yardstick() {
        let limits = Limits {
            seconds: 1000.0,
            max_ops: 2,
        };
        let mut yardstick = Yardstick::default();
        let mut clock = Clock::start(limits, 0, 0, 0, Some(&mut yardstick));
        assert!(clock.slowdown_before > 0.0);
        assert!(clock.proceed(0, 0, 0).is_some());
        assert!(clock.proceed(1, 1, 8).is_some());
        assert!(clock.proceed(2, 2, 16).is_none());
        let mut timing = clock.finish();
        assert!(timing.windows.is_empty(), "nothing ran for a whole window");
        let later = Timing {
            wall_s: 1.5,
            windows: vec![w(2, 1.0, 1.0)],
        };
        let wall = timing.wall_s;
        timing.absorb(later);
        assert_eq!(timing.windows.len(), 1);
        assert_eq!(timing.wall_s, wall + 1.5);
    }
}
