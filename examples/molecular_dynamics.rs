//! A Moldyn-style molecular dynamics force loop with a *dynamic*
//! interaction list: every few timesteps the neighbor list rebuilds as
//! atoms move, and the reference pattern drifts.  The SmartApp runtime
//! re-characterizes on sustained drift and re-selects the reduction
//! scheme — the "adaptive algorithm selection" the paper motivates with
//! exactly this kind of code.
//!
//! Run with: `cargo run --release --example molecular_dynamics`

use smartapps::core::toolbox::DomainKey;
use smartapps::prelude::*;

/// Build an interaction list for a given "temperature": hot systems mix
/// atoms widely (long-range disorder), cold systems interact locally.
fn interaction_list(atoms: usize, pairs: usize, temperature: f64, seed: u64) -> AccessPattern {
    let window = (atoms as f64 * temperature.clamp(0.001, 1.0)) as u32;
    PatternSpec {
        num_elements: atoms,
        iterations: pairs,
        refs_per_iter: 2,
        coverage: 1.0,
        dist: Distribution::Clustered {
            window: window.max(8),
        },
        seed,
    }
    .generate()
}

fn main() {
    let threads = 4;
    let atoms = 65_536;
    let pairs = 300_000;
    // ComputeForces cannot be owner-computed (the loop also updates shared
    // neighbor bookkeeping), matching the paper's Moldyn row.
    let mut smart = AdaptiveReduction::new(1, threads, false);

    println!("Moldyn ComputeForces: {atoms} atoms, {pairs} pairs, {threads} threads\n");
    println!("step  temp   drift   characterized  scheme  time");
    let mut temperature = 0.01; // cold start: highly local interactions
    let mut last = None;
    for step in 0..12 {
        // The system heats up at step 6: the neighbor list delocalizes.
        if step == 6 {
            temperature = 0.9;
        }
        let pattern = interaction_list(atoms, pairs, temperature, step as u64);
        let (forces, log) = smart.execute(&pattern, &|_i, r| contribution(r));
        println!(
            "{step:4}  {temperature:4.2}  {:6.3}  {:13}  {:6}  {:.2?}",
            log.drift,
            if log.characterized { "yes" } else { "no" },
            log.scheme.abbrev(),
            log.elapsed
        );
        // Use the forces so the work is real.
        let total: f64 = forces.iter().sum();
        assert!(total.is_finite());
        last = Some((log.scheme, pattern));
    }
    println!(
        "\nThe phase change at step 6 shows up as sustained drift; the runtime\n\
         re-characterizes and may switch schemes as locality collapses."
    );
    let (scheme, pattern) = last.unwrap();
    let domain = DomainKey::of(&PatternChars::measure(&pattern));
    let cal = smart.calibrator.lock().unwrap();
    println!(
        "calibrator accepted {} samples; {} correction in the hot domain: {:.2}",
        cal.calibration_updates(),
        scheme.abbrev(),
        cal.correction(scheme, domain, false)
    );
}
