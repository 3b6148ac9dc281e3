//! Sweep results must be independent of the worker-pool size: `--jobs 1`
//! and `--jobs N` must yield byte-identical JSON. The pool only decides
//! *when* a cell runs, never *what* it computes, and results are reassembled
//! by cell index — this test is the regression gate on that contract.

use bench::{
    ablation_contention, ablation_costs, ablation_topology, fault_sweep, pool, rows_to_json, Row,
};

#[test]
fn fault_sweep_output_is_independent_of_jobs() {
    // The fault sweep covers both applications (counting + B-tree) through
    // the same `pool::map_indexed` path every other sweep uses, with small
    // enough windows to run twice in a test; the ablations add cells that
    // override cost and coherence constants and the network topology. One
    // test, because the worker count is process-wide.
    type Sweep = fn() -> Vec<Row>;
    let sweeps: [(&str, Sweep); 4] = [
        ("fault_sweep", || fault_sweep(7)),
        ("ablation_costs", ablation_costs),
        ("ablation_contention", ablation_contention),
        ("ablation_topology", ablation_topology),
    ];
    for (name, sweep) in sweeps {
        pool::set_jobs(1);
        let serial = rows_to_json(&sweep()).render();
        pool::set_jobs(4);
        let parallel = rows_to_json(&sweep()).render();
        assert_eq!(serial, parallel, "{name} output depends on --jobs");
    }
    pool::set_jobs(0); // restore auto for any later caller in this process
}
