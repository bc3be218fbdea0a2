//! Reference computations written apart from the program, in f64: the
//! error metrics, a plain banded DTW, and the two trivial forecasters whose
//! errors serve as floors for the model's.

use std::ops::Range;

/// A sensor-major `n × t_total` block of readings (the dataset layout).
#[derive(Clone, Copy)]
pub struct Grid<'a> {
    pub values: &'a [f32],
    pub t_total: usize,
}

impl Grid<'_> {
    pub fn at(&self, sensor: usize, step: usize) -> f32 {
        self.values[sensor * self.t_total + step]
    }
}

/// One forecast target: `sensor` at `step`, predicted from an input window
/// whose last step is `last_input`.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub sensor: usize,
    pub step: usize,
    pub last_input: usize,
}

/// RMSE and MAE of `pred` against `truth`.
pub fn rmse_mae(pred: &[f64], truth: &[f64]) -> (f64, f64) {
    assert_eq!(pred.len(), truth.len(), "prediction/truth length mismatch");
    assert!(!pred.is_empty(), "no predictions");
    let (mut se, mut ae) = (0.0, 0.0);
    for (p, t) in pred.iter().zip(truth) {
        se += (p - t) * (p - t);
        ae += (p - t).abs();
    }
    let n = pred.len() as f64;
    ((se / n).sqrt(), ae / n)
}

/// Banded DTW with absolute-difference local cost: the cheapest monotone
/// alignment of `a` and `b` that only pairs `a[i]` with `b[j]` for
/// `|i - j| <= band` (widened to the length difference, so a path exists).
pub fn dtw_banded(a: &[f32], b: &[f32], band: usize) -> f64 {
    let (n, m) = (a.len(), b.len());
    let band = band.max(n.abs_diff(m));
    let mut cost = vec![vec![f64::INFINITY; m + 1]; n + 1];
    cost[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            if i.abs_diff(j) > band {
                continue;
            }
            let best = cost[i - 1][j].min(cost[i][j - 1]).min(cost[i - 1][j - 1]);
            cost[i][j] = (a[i - 1] as f64 - b[j - 1] as f64).abs() + best;
        }
    }
    cost[n][m]
}

/// RMSE of the time-of-day average: each target is predicted by the mean of
/// every finite training-period reading of the observed sensors at the same
/// step of the day.
pub fn tod_floor(
    grid: Grid,
    observed: &[usize],
    train: Range<usize>,
    steps_per_day: usize,
    cells: &[Cell],
) -> f64 {
    let mut sum = vec![0.0f64; steps_per_day];
    let mut count = vec![0usize; steps_per_day];
    for &g in observed {
        for t in train.clone() {
            let v = grid.at(g, t);
            if v.is_finite() {
                sum[t % steps_per_day] += v as f64;
                count[t % steps_per_day] += 1;
            }
        }
    }
    let pred: Vec<f64> = cells
        .iter()
        .map(|c| {
            let k = c.step % steps_per_day;
            assert!(count[k] > 0, "no training reading at step {k} of the day");
            sum[k] / count[k] as f64
        })
        .collect();
    rmse_mae(&pred, &truths(grid, cells)).0
}

/// RMSE of inverse-distance persistence: each target is predicted by the
/// inverse-distance-weighted mean of the observed sensors' finite readings
/// at the last input step, whatever the horizon.
pub fn idw_persistence_floor(
    grid: Grid,
    coords: &[[f64; 2]],
    observed: &[usize],
    cells: &[Cell],
) -> f64 {
    let pred: Vec<f64> = cells
        .iter()
        .map(|c| {
            let (mut num, mut den) = (0.0, 0.0);
            for &g in observed {
                let v = grid.at(g, c.last_input);
                if v.is_finite() {
                    let [x, y] = coords[g];
                    let [u, w] = coords[c.sensor];
                    let inv = 1.0 / ((x - u).hypot(y - w)).max(1e-3);
                    num += inv * v as f64;
                    den += inv;
                }
            }
            assert!(den > 0.0, "no finite observed reading at step {}", c.last_input);
            num / den
        })
        .collect();
    rmse_mae(&pred, &truths(grid, cells)).0
}

fn truths(grid: Grid, cells: &[Cell]) -> Vec<f64> {
    cells.iter().map(|c| grid.at(c.sensor, c.step) as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmse_and_mae_by_hand() {
        let (rmse, mae) = rmse_mae(&[1.0, 2.0, 3.0, 4.0], &[1.0, 4.0, 3.0, 0.0]);
        // Errors 0, -2, 0, 4: squares sum to 20, absolutes to 6.
        assert!((rmse - 5.0f64.sqrt()).abs() < 1e-15);
        assert_eq!(mae, 1.5);
    }

    #[test]
    fn dtw_by_hand() {
        // Unconstrained, [0,1,2] aligns with [0,0,1,2] at zero cost.
        assert_eq!(dtw_banded(&[0.0, 1.0, 2.0], &[0.0, 0.0, 1.0, 2.0], usize::MAX), 0.0);
        // Identical series cost nothing even with a zero band.
        assert_eq!(dtw_banded(&[3.0, -1.0, 2.0], &[3.0, -1.0, 2.0], 0), 0.0);
        // Band 0 forces the diagonal: |1-2| + |2-1| + |3-3| = 2.
        assert_eq!(dtw_banded(&[1.0, 2.0, 3.0], &[2.0, 1.0, 3.0], 0), 2.0);
        // Band 1 lets a step shift: a = [0,1,0,0], b = [0,0,1,0] aligns
        // (0,0),(0,1),(1,2),(2,3),(3,3) at cost 0.
        assert_eq!(dtw_banded(&[0.0, 1.0, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0], 1), 0.0);
        // A shift of two needs band 2: with band 1 each peak meets a zero.
        let (a, b) = ([0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0]);
        assert_eq!(dtw_banded(&a, &b, 1), 2.0);
        assert_eq!(dtw_banded(&a, &b, 2), 0.0);
    }

    /// Three sensors on a line at x = 0, 1, 3, two steps per day, six
    /// steps. Sensors 0 and 2 are observed; sensor 1 is the target.
    fn toy() -> (Vec<f32>, Vec<[f64; 2]>) {
        let sensor0 = [1.0, 3.0, 2.0, 4.0, 10.0, 20.0];
        let sensor1 = [5.0, 5.0, 5.0, 5.0, 6.0, 8.0];
        let sensor2 = [3.0, 5.0, f32::NAN, 8.0, 4.0, 2.0];
        let values = [sensor0, sensor1, sensor2].concat();
        (values, vec![[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    }

    #[test]
    fn time_of_day_floor_by_hand() {
        let (values, _) = toy();
        let grid = Grid { values: &values, t_total: 6 };
        // Training steps 0..4. Even steps: 1, 2, 3 (NaN skipped) → 2.
        // Odd steps: 3, 4, 5, 8 → 5.
        let cells = [
            Cell { sensor: 1, step: 4, last_input: 3 },
            Cell { sensor: 1, step: 5, last_input: 3 },
        ];
        let rmse = tod_floor(grid, &[0, 2], 0..4, 2, &cells);
        // Errors 2 - 6 = -4 and 5 - 8 = -3.
        assert!((rmse - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn idw_persistence_floor_by_hand() {
        let (values, coords) = toy();
        let grid = Grid { values: &values, t_total: 6 };
        // Step 3: sensor 0 reads 4 at distance 1, sensor 2 reads 8 at
        // distance 2. Weights 1 and 1/2: (4 + 4) / 1.5 = 16/3.
        let cells = [
            Cell { sensor: 1, step: 4, last_input: 3 },
            Cell { sensor: 1, step: 5, last_input: 3 },
        ];
        let rmse = idw_persistence_floor(grid, &coords, &[0, 2], &cells);
        let p = 16.0 / 3.0;
        let expected = (((p - 6.0) * (p - 6.0) + (p - 8.0) * (p - 8.0)) / 2.0f64).sqrt();
        assert!((rmse - expected).abs() < 1e-12);
        // Step 2: sensor 2 is NaN, so sensor 0's reading 2 is the blend.
        let cell = [Cell { sensor: 1, step: 3, last_input: 2 }];
        assert!((idw_persistence_floor(grid, &coords, &[0, 2], &cell) - 3.0).abs() < 1e-12);
    }
}
