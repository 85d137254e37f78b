//! E5 — Convergence rate: measured contraction vs the `(1 − γ)^t` bound.
//!
//! The proof of Theorem 5 guarantees that the per-coordinate range of the
//! non-faulty states satisfies `ρ[t] ≤ (1 − γ)^t ρ[0]` with
//! `γ = 1/(n·C(n,n−f))` (equation (13)), improved to `γ = 1/n²` by the
//! witness optimisation of Appendix F.  This experiment runs the asynchronous
//! algorithm under an anti-convergence adversary, records the measured range
//! after each round, and prints it next to both analytical bounds.

use bvc_adversary::{ByzantineStrategy, PointForge, StateForger};
use bvc_bench::{experiment_header, fmt, honest_workload, Table};
use bvc_core::{
    gamma, gamma_witness_optimized, BvcConfig, BvcSession, ProtocolKind, RunConfig,
    StateExchangeProcess, StateMsg, UpdateRule,
};
use bvc_geometry::PointMultiset;
use bvc_net::{Delivery, ProcessId, SyncProcess};

fn main() {
    experiment_header(
        "E5: measured contraction vs the (1 − γ)^t bound",
        "ρ[t] ≤ (1−γ)^t ρ[0] with γ = 1/(n·C(n,n−f)) (eq. 13); γ = 1/n² with the Appendix F \
         witness optimisation; measured contraction is expected to be much faster than the bound",
    );

    let (n, f, d) = (5usize, 1usize, 2usize);
    let eps = 0.05;
    let inputs = honest_workload(777, n - f, d);
    // Scheduling adversary: starve all traffic from honest process p1 so the
    // remaining processes complete rounds with differing B sets — otherwise
    // the reliable-broadcast consistency makes every honest process see the
    // same tuples and the spread collapses to zero after a single round.
    let run = BvcSession::new(
        ProtocolKind::Approx,
        RunConfig::new(n, f, d)
            .honest_inputs(inputs)
            .adversary(ByzantineStrategy::AntiConvergence)
            .epsilon(eps)
            .update_rule(UpdateRule::WitnessOptimized)
            .delivery_policy(bvc_net::DeliveryPolicy::DelayFrom(vec![
                bvc_net::ProcessId::new(0),
            ]))
            .seed(99),
    )
    .expect("parameters satisfy the bound")
    .run();

    let ranges = run.range_history();
    let rho0 = ranges[0];
    let g_full = gamma(n, f);
    let g_wit = gamma_witness_optimized(n);

    println!(
        "n = {n}, f = {f}, d = {d}, ε = {eps}; γ_full = {:.6}, γ_witness = {:.6}, ρ[0] = {:.4}",
        g_full, g_wit, rho0
    );
    println!(
        "round budget (Step 3): {} rounds\n",
        run.round_budget().expect("approx budget")
    );

    let mut table = Table::new(&[
        "round t",
        "measured ρ[t]",
        "bound (1−γ_full)^t ρ[0]",
        "bound (1−γ_wit)^t ρ[0]",
        "measured within bound",
    ]);
    let show = ranges.len().min(16);
    for (t, &measured) in ranges.iter().enumerate().take(show) {
        let bound_full = (1.0 - g_full).powi(t as i32) * rho0;
        let bound_wit = (1.0 - g_wit).powi(t as i32) * rho0;
        table.row(&[
            t.to_string(),
            fmt(measured, 6),
            fmt(bound_full, 6),
            fmt(bound_wit, 6),
            bvc_bench::mark(measured <= bound_full + 1e-9),
        ]);
    }
    table.print();
    if ranges.len() > show {
        let last = ranges.len() - 1;
        println!(
            "... ({} more rounds) final ρ[{}] = {:.8}",
            ranges.len() - show,
            last,
            ranges[last]
        );
    }
    println!();
    println!(
        "The measured range never exceeds the analytical bound, and in practice contracts far \
         faster: the reliable-broadcast layer of the AAD exchange makes the Byzantine process's \
         value consistent at every honest process, so in this small system the honest B sets \
         coincide and the states collapse to a single point after one round — the bound only \
         credits a single common weight γ per round."
    );

    // -----------------------------------------------------------------------
    // Part 2: the restricted synchronous algorithm, where the adversary's
    // per-receiver equivocation enters B_i directly (no reliable broadcast),
    // so the honest states genuinely differ and the contraction is visible
    // round by round.
    // -----------------------------------------------------------------------
    println!();
    println!("### restricted synchronous rounds under per-receiver equivocation");
    println!();
    let (n, f, d) = (5usize, 1usize, 2usize);
    let config = BvcConfig::new(n, f, d)
        .expect("valid parameters")
        .with_epsilon(eps)
        .expect("valid epsilon");
    let inputs = honest_workload(4242, n - f, d);
    let mut honest: Vec<StateExchangeProcess> = inputs
        .iter()
        .enumerate()
        .map(|(i, p)| StateExchangeProcess::restricted_sync(config.clone(), i, p.clone()))
        .collect();
    let mut forge = PointForge::new(ByzantineStrategy::AntiConvergence, d, 0.0, 1.0, 5);
    forge.set_honest_value(bvc_geometry::Point::uniform(d, 0.5));
    // Manual lock-step loop so the concrete process histories stay accessible.
    let rounds = 20usize;
    let mut byz = StateForger::new((0..n - 1).collect(), rounds, forge, StateMsg::new);
    let mut inboxes: Vec<Vec<Delivery<StateMsg>>> = vec![Vec::new(); n];
    for round in 1..=rounds {
        let mut next: Vec<Vec<Delivery<StateMsg>>> = vec![Vec::new(); n];
        for (i, process) in honest.iter_mut().enumerate() {
            for out in process.round(round, &inboxes[i]) {
                next[out.to.index()].push(Delivery::new(ProcessId::new(i), out.msg));
            }
        }
        for out in byz.round(round, &inboxes[n - 1]) {
            next[out.to.index()].push(Delivery::new(ProcessId::new(n - 1), out.msg));
        }
        for inbox in next.iter_mut() {
            inbox.sort_by_key(|d| d.from.index());
        }
        inboxes = next;
    }

    let g = gamma(n, f);
    let histories: Vec<&[bvc_geometry::Point]> =
        honest.iter().map(|p| p.core().history()).collect();
    let measured: Vec<f64> = (0..rounds.min(histories[0].len()))
        .map(|t| {
            PointMultiset::new(histories.iter().map(|h| h[t].clone()).collect()).coordinate_range()
        })
        .collect();
    let rho0 = measured[0];
    let mut table = Table::new(&[
        "round t",
        "measured ρ[t]",
        "bound (1−γ)^t ρ[0]",
        "measured within bound",
    ]);
    for (t, &m) in measured.iter().enumerate().take(13) {
        let bound = (1.0 - g).powi(t as i32) * rho0;
        table.row(&[
            t.to_string(),
            fmt(m, 6),
            fmt(bound, 6),
            bvc_bench::mark(m <= bound + 1e-9),
        ]);
    }
    table.print();
    println!();
    println!(
        "Here the spread persists across rounds (the equivocating process feeds different corner \
         values into different honest B sets each round) and contracts geometrically, staying \
         under the (1−γ)^t envelope of equation (13) — with a much better empirical rate than \
         the worst-case γ."
    );
}
