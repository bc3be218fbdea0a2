//! Order of a run's phases. The host's speed drifts within a run (its
//! drift marker reads up to 1.5× apart before and after one), so a phase
//! run as one block measures whichever stretch of the run it landed in.
//! Interleaving the phases in short stretches makes every phase sample the
//! whole run instead.

/// What a phase must do in one run: run at least `seconds` and at least
/// `min_ops` operations.
#[derive(Clone, Copy, Debug)]
pub struct Quota {
    pub seconds: f64,
    pub min_ops: usize,
}

/// A phase's quota and what it has spent of it.
#[derive(Clone, Copy, Debug)]
struct Account {
    quota: Quota,
    seconds: f64,
    ops: usize,
}

impl Account {
    /// Share of the quota met: the lesser of the time and operation shares.
    fn progress(&self) -> f64 {
        let time = if self.quota.seconds > 0.0 {
            self.seconds / self.quota.seconds
        } else {
            f64::INFINITY
        };
        let ops = if self.quota.min_ops > 0 {
            self.ops as f64 / self.quota.min_ops as f64
        } else {
            f64::INFINITY
        };
        time.min(ops)
    }
}

pub struct Schedule {
    accounts: Vec<Account>,
    interleave: bool,
}

impl Schedule {
    /// `interleave` false runs each phase to its quota before the next.
    pub fn new(quotas: &[Quota], interleave: bool) -> Self {
        let accounts =
            quotas.iter().map(|&quota| Account { quota, seconds: 0.0, ops: 0 }).collect();
        Schedule { accounts, interleave }
    }

    /// Books a stretch of `phase` that ran `seconds` and `ops` operations.
    pub fn spend(&mut self, phase: usize, seconds: f64, ops: usize) {
        let a = &mut self.accounts[phase];
        a.seconds += seconds;
        a.ops += ops;
    }

    /// The phase to run next, or `None` once every quota is met. When
    /// interleaving, it is the phase furthest behind its quota (the first
    /// such on a tie); otherwise the first phase not yet done.
    pub fn next(&self) -> Option<usize> {
        let open = self.accounts.iter().enumerate().filter(|(_, a)| a.progress() < 1.0);
        if self.interleave {
            open.min_by(|(_, a), (_, b)| a.progress().total_cmp(&b.progress())).map(|(i, _)| i)
        } else {
            open.map(|(i, _)| i).next()
        }
    }

    /// What `phase` still needs to meet its quota in one stretch.
    pub fn remaining(&self, phase: usize) -> Quota {
        let a = &self.accounts[phase];
        Quota {
            seconds: (a.quota.seconds - a.seconds).max(0.0),
            min_ops: a.quota.min_ops.saturating_sub(a.ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `schedule` with phases whose stretches take the given seconds
    /// and one operation each, returning the order.
    fn order(schedule: &mut Schedule, stretch_s: &[f64]) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(p) = schedule.next() {
            order.push(p);
            schedule.spend(p, stretch_s[p], 1);
        }
        order
    }

    #[test]
    fn interleaving_runs_the_phase_furthest_behind() {
        let quotas = [
            Quota { seconds: 4.0, min_ops: 1 },
            Quota { seconds: 2.0, min_ops: 1 },
            Quota { seconds: 2.0, min_ops: 1 },
        ];
        let mut s = Schedule::new(&quotas, true);
        // Phase 0 takes 2 s a stretch, the others 1 s: after phase 0's
        // first stretch (half its quota) the others catch up to half, then
        // the round repeats.
        assert_eq!(order(&mut s, &[2.0, 1.0, 1.0]), [0, 1, 2, 0, 1, 2]);
        assert_eq!(s.next(), None);
    }

    #[test]
    fn without_interleaving_each_phase_finishes_first() {
        let quotas = [Quota { seconds: 2.0, min_ops: 1 }, Quota { seconds: 2.0, min_ops: 3 }];
        let mut s = Schedule::new(&quotas, false);
        assert_eq!(order(&mut s, &[1.0, 1.0]), [0, 0, 1, 1, 1]);
    }

    #[test]
    fn operation_minimums_hold_past_the_time_quota() {
        let mut s = Schedule::new(&[Quota { seconds: 1.0, min_ops: 3 }], true);
        assert_eq!(order(&mut s, &[5.0]), [0, 0, 0]);
        assert_eq!(s.remaining(0).min_ops, 0);
    }

    #[test]
    fn booked_work_counts_toward_the_quota() {
        let quotas = [Quota { seconds: 3.0, min_ops: 1 }, Quota { seconds: 1.0, min_ops: 1 }];
        let mut s = Schedule::new(&quotas, true);
        s.spend(0, 2.0, 1);
        assert_eq!(s.remaining(0).seconds, 1.0);
        assert_eq!(s.remaining(0).min_ops, 0);
        assert_eq!(order(&mut s, &[1.0, 1.0]), [1, 0]);
    }
}
