//! The Theorem 4.1 reduction in action: encode 3SAT instances as data
//! exchange settings and watch existence-of-solutions inherit the SAT
//! phase transition. Sessions drive the SAT-encoding backend (the
//! encoding is memoized per session).
//!
//! ```text
//! cargo run --release --example sat_frontier
//! ```

use gdx::datagen::{random_3cnf, rng};
use gdx::exchange::reduction::{Reduction, ReductionFlavor};
use gdx::prelude::*;
use gdx::sat::{Cnf, Lit};
use std::time::Instant;

fn main() -> Result<()> {
    // The paper's ρ0 = (x1 ∨ ¬x2 ∨ x3) ∧ (¬x1 ∨ x3 ∨ ¬x4).
    let mut rho0 = Cnf::new(4);
    rho0.add_clause(vec![Lit::pos(0), Lit::neg(1), Lit::pos(2)]);
    rho0.add_clause(vec![Lit::neg(0), Lit::pos(2), Lit::neg(3)]);
    println!("ρ0 = {rho0}");

    let red = Reduction::from_cnf(&rho0, ReductionFlavor::Egd)?;
    println!("\nReduced setting Ω_ρ0:\n{}", red.setting);

    // Figure 4's solution encodes the valuation t,t,f,f.
    let fig4 = red.solution_from_valuation(&[true, true, false, false]);
    println!("Figure 4 solution:\n{fig4}");
    let mut session = ExchangeSession::new(red.setting.clone(), red.instance.clone());
    assert!(session.is_solution(&fig4)?);

    // The same session answers existence via the memoized SAT encoding:
    // a second call re-solves without re-encoding.
    assert!(session.solution_exists_sat()?.exists());
    assert!(session.solution_exists_sat()?.exists());

    // Decide existence across the clause/variable ratio sweep — the
    // solution-existence frontier is the SAT phase transition.
    println!("existence frontier (n = 20, SAT-encoding solver):");
    println!("{:>6} {:>10} {:>12}", "m/n", "exists", "time");
    for ratio in [1.0, 2.0, 3.0, 4.0, 4.3, 4.6, 5.0, 6.0] {
        let n = 20u32;
        let m = ((n as f64) * ratio).round() as usize;
        let mut exists_count = 0;
        #[expect(
            clippy::disallowed_methods,
            reason = "the example reports wall-clock timings"
        )]
        let t = Instant::now();
        let runs = 5;
        for seed in 0..runs {
            let cnf = random_3cnf(n, m, &mut rng(seed + (ratio * 1000.0) as u64));
            let red = Reduction::from_cnf(&cnf, ReductionFlavor::Egd)?;
            let mut s = ExchangeSession::new(red.setting, red.instance);
            if s.solution_exists_sat()?.exists() {
                exists_count += 1;
            }
        }
        println!(
            "{:>6.1} {:>7}/{runs} {:>12?}",
            ratio,
            exists_count,
            t.elapsed() / runs as u32
        );
    }
    println!("\n(Exists-fraction drops from 1 to 0 around m/n ≈ 4.3 — the");
    println!(" hardness Theorem 4.1 transports from 3SAT into data exchange.)");
    Ok(())
}
