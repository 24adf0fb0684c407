//! Order statistics and the time box.

use dne_benchmark::stats::{median, percentile, quartiles, spread, TimeBox};

#[test]
fn median_of_odd_and_even_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

/// Reference values from Python's `statistics.quantiles(values, n=4)`.
#[test]
fn quartiles_match_python_statistics_quantiles() {
    assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 4.0]), (1.5, 7.0));
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]), (2.75, 8.25));
    assert_eq!(quartiles(&[2.5, 2.5, 2.5]), (2.5, 2.5));
    assert_eq!(quartiles(&[1.0, 100.0, 2.0, 3.0]), (1.25, 75.75));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    let values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
    assert_eq!(spread(&values), (8.25 - 2.75) / 5.5);
    assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 0.0), 1.0);
    assert_eq!(percentile(&values, 0.5), 51.0);
    assert_eq!(percentile(&values, 0.99), 99.0);
    assert_eq!(percentile(&values, 1.0), 100.0);
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
}

#[test]
fn time_box_makes_its_minimum_however_slow() {
    let time_box = TimeBox { min_reps: 3, budget_s: 25.0 };
    // Ten times over budget after one repetition: two more still run.
    assert!(time_box.wants_more(1, 250.0));
    assert!(time_box.wants_more(2, 500.0));
    assert!(!time_box.wants_more(3, 750.0));
}

#[test]
fn time_box_stops_at_its_budget() {
    let time_box = TimeBox { min_reps: 3, budget_s: 25.0 };
    assert!(time_box.wants_more(3, 24.9));
    assert!(time_box.wants_more(11, 24.9));
    assert!(!time_box.wants_more(3, 25.0));
    assert!(!time_box.wants_more(4, 31.0));
}

#[test]
fn time_box_run_counts_repetitions() {
    // A spent budget leaves exactly the minimum.
    let mut seen = Vec::new();
    let reps = TimeBox { min_reps: 3, budget_s: 0.0 }.run(|rep| seen.push(rep));
    assert_eq!((reps, seen), (3, vec![0, 1, 2]));
    // An open budget keeps going until the clock says stop.
    let reps = TimeBox { min_reps: 1, budget_s: 0.02 }
        .run(|_| std::thread::sleep(std::time::Duration::from_millis(5)));
    assert!((2..=5).contains(&reps), "{reps} repetitions of 5 ms in a 20 ms box");
}
