//! The high-level API: `SecureArray` packages dataflow linearization the
//! way §6.2 proposes packing the algorithms into macro-operations — user
//! code indexes the array; bitmaps and fetchsets never surface.
//!
//! The scenario: a medical-risk scoring service whose lookup tables are
//! indexed by patient attributes (the secrets).
//!
//! ```text
//! cargo run --release --example secure_array
//! ```

use ctbia::core::ctmem::Width;
use ctbia::machine::{BiaPlacement, Machine, SecureArray};
use ctbia::workloads::Strategy;

/// Risk scoring: `score = risk_table[age] + risk_table[1000 + bmi] * 2`,
/// with a running secret-indexed histogram of scores.
struct Scorer {
    risk_table: SecureArray,
    score_bins: SecureArray,
}

impl Scorer {
    fn new(m: &mut Machine, strategy: Strategy) -> Self {
        let risk_table =
            SecureArray::from_fn(m, Width::U32, 2000, strategy, |i| (i * 37 % 101) + 1).unwrap();
        let score_bins = SecureArray::new(m, Width::U32, 256, strategy).unwrap();
        Scorer {
            risk_table,
            score_bins,
        }
    }

    fn score(&self, m: &mut Machine, age: u64, bmi: u64) -> u64 {
        let a = self.risk_table.get(m, age);
        let b = self.risk_table.get(m, 1000 + bmi);
        let score = a + 2 * b;
        self.score_bins.update(m, score % 256, |c| c + 1);
        score
    }
}

fn main() {
    let patients: Vec<(u64, u64)> = (0..40)
        .map(|i| ((20 + i * 7) % 90, (15 + i * 3) % 40))
        .collect();

    let mut insecure_m = Machine::insecure();
    let insecure = Scorer::new(&mut insecure_m, Strategy::Insecure);
    let (scores_a, base_cost) = insecure_m.measure(|m| {
        patients
            .iter()
            .map(|&(a, b)| insecure.score(m, a, b))
            .collect::<Vec<_>>()
    });

    let mut bia_m = Machine::with_bia(BiaPlacement::L1d);
    let protected = Scorer::new(&mut bia_m, Strategy::bia());
    let (scores_b, bia_cost) = bia_m.measure(|m| {
        patients
            .iter()
            .map(|&(a, b)| protected.score(m, a, b))
            .collect::<Vec<_>>()
    });

    assert_eq!(scores_a, scores_b, "protection never changes results");
    println!(
        "scored {} patients; first scores: {:?}",
        patients.len(),
        &scores_a[..5]
    );
    println!("insecure:   {:>9} cycles", base_cost.cycles);
    println!(
        "BIA (L1d):  {:>9} cycles ({:.2}x) — every table access linearized,",
        bia_cost.cycles,
        bia_cost.cycles as f64 / base_cost.cycles as f64
    );
    println!("            yet the code above never touched a bitmap or a DS.");

    // The security property, demonstrated on the API:
    let trace = |age: u64, bmi: u64| {
        let mut m = Machine::with_bia(BiaPlacement::L1d);
        let s = Scorer::new(&mut m, Strategy::bia());
        m.enable_observation();
        s.score(&mut m, age, bmi);
        m.take_observation().demand
    };
    assert_eq!(trace(25, 20), trace(85, 39));
    println!("\ntraces for different patients are identical — attributes stay private.");
}
