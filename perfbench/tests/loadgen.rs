//! The open-loop schedule is a pure function of (seed, rate, count).

use gtv_perfbench::loadgen::{schedule, BLOCK};

#[test]
fn schedule_is_a_pure_function_of_seed_and_rate() {
    assert_eq!(schedule(7, 16.0, 320), schedule(7, 16.0, 320));
    assert_ne!(schedule(7, 16.0, 320), schedule(8, 16.0, 320), "the seed moves the schedule");
    assert_ne!(schedule(7, 16.0, 320), schedule(7, 8.0, 320), "the rate moves the schedule");
    // A shorter schedule is a prefix of a longer one.
    assert_eq!(schedule(7, 16.0, 100)[..], schedule(7, 16.0, 320)[..100]);
}

#[test]
fn schedule_has_the_fixed_mix_and_rate() {
    let rate = 12.0;
    let arrivals = schedule(3, rate, 32 * BLOCK);
    for block in arrivals.chunks(BLOCK) {
        assert_eq!(block.iter().filter(|a| a.bulk).count(), 1, "one bulk request per block");
    }
    for (i, a) in arrivals.iter().enumerate() {
        let slot = a.due_s * rate - i as f64;
        assert!((-1e-9..1.0 + 1e-9).contains(&slot), "request {i} is due inside its own slot");
    }
    assert!(arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s), "due times never go back");
}
