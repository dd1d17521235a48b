//! The experiment drivers behind the `paper` binary's subcommands.

use skil_apps::workload::round_up_to_multiple;
use skil_apps::{
    gauss_dpfl, gauss_parix_c, gauss_skil, gauss_skil_pivot, matmul_c_opt, matmul_skil,
    shpaths_c_old, shpaths_dpfl, shpaths_skil,
};
use skil_runtime::{FaultPlan, Machine, MachineConfig, RunReport};

/// The seed all reproduction runs use (results are deterministic).
pub const SEED: u64 = 0x51_1996;

/// One measured row of the Table 1 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    /// Grid side √p.
    pub side: usize,
    /// Problem size actually used (the paper's round-up rule).
    pub n: usize,
    /// Simulated Skil seconds.
    pub skil: f64,
    /// Simulated DPFL seconds (even grids only, like the paper).
    pub dpfl: Option<f64>,
    /// Simulated old-C seconds (even grids only).
    pub c_old: Option<f64>,
}

/// Run the Table 1 experiment: shortest paths with n ≈ `n_base` on
/// `sides` × `sides` machines.
pub fn table1(n_base: usize, sides: &[usize], compare_on: &[usize]) -> Vec<Table1Row> {
    sides
        .iter()
        .map(|&side| {
            let n = round_up_to_multiple(n_base, side);
            let m = Machine::new(MachineConfig::square(side).expect("square machine"));
            let skil = shpaths_skil(&m, n, SEED).sim_seconds;
            let (dpfl, c_old) = if compare_on.contains(&side) {
                (
                    Some(shpaths_dpfl(&m, n, SEED).sim_seconds),
                    Some(shpaths_c_old(&m, n, SEED).sim_seconds),
                )
            } else {
                (None, None)
            };
            Table1Row { side, n, skil, dpfl, c_old }
        })
        .collect()
}

/// One measured cell of the Table 2 reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Table2Cell {
    /// Mesh shape (rows, cols).
    pub mesh: (usize, usize),
    /// Matrix size.
    pub n: usize,
    /// Simulated Skil seconds.
    pub skil: f64,
    /// Simulated DPFL seconds.
    pub dpfl: f64,
    /// Simulated hand-written C seconds.
    pub c: f64,
}

impl Table2Cell {
    /// DPFL/Skil speed-up (roman in the paper).
    pub fn dpfl_over_skil(&self) -> f64 {
        self.dpfl / self.skil
    }

    /// Skil/C slow-down (italics in the paper).
    pub fn skil_over_c(&self) -> f64 {
        self.skil / self.c
    }
}

/// Run the Table 2 experiment: Gaussian elimination (no pivoting) for
/// every mesh in `meshes` and size in `ns`.
pub fn table2(meshes: &[(usize, usize)], ns: &[usize]) -> Vec<Table2Cell> {
    let mut out = Vec::new();
    for &(rows, cols) in meshes {
        let m = Machine::new(MachineConfig::mesh(rows, cols).expect("mesh"));
        for &n in ns {
            let skil = gauss_skil(&m, n, SEED).sim_seconds;
            let dpfl = gauss_dpfl(&m, n, SEED).sim_seconds;
            let c = gauss_parix_c(&m, n, SEED).sim_seconds;
            out.push(Table2Cell { mesh: (rows, cols), n, skil, dpfl, c });
        }
    }
    out
}

/// The §5.1 matmul comparison at one configuration; returns
/// (skil seconds, c seconds).
pub fn matmul20(side: usize, n: usize) -> (f64, f64) {
    let m = Machine::new(MachineConfig::square(side).expect("square machine"));
    let skil = matmul_skil(&m, n, SEED).sim_seconds;
    let c = matmul_c_opt(&m, n, SEED).sim_seconds;
    (skil, c)
}

/// The §5.2 pivot-overhead comparison; returns (no-pivot seconds,
/// pivot seconds) on a `procs`-processor machine.
pub fn gauss_pivot_ratio(procs: usize, n: usize) -> (f64, f64) {
    let m = Machine::new(MachineConfig::procs(procs).expect("machine"));
    let nopiv = gauss_skil(&m, n, SEED).sim_seconds;
    let piv = gauss_skil_pivot(&m, n, SEED).sim_seconds;
    (nopiv, piv)
}

/// Problem size of the traced runs `paper trace_report` exports (the
/// goldens' size).
pub const TRACE_N: usize = 24;

/// The traced run behind `paper trace_report`'s artifacts: `app`
/// (`"shpaths"` or `"gauss"`) at [`TRACE_N`] on a 2×2 mesh, under
/// `faults` if given. Runs it untraced too and panics unless tracing
/// left the simulated time bit-identical.
pub fn traced_report(app: &str, faults: Option<&FaultPlan>) -> RunReport {
    let cfg = || {
        let c = MachineConfig::square(2).expect("2x2 mesh");
        match faults {
            Some(plan) => c.with_faults(plan.clone()),
            None => c,
        }
    };
    let plain = Machine::new(cfg());
    let traced = Machine::new(cfg().with_trace());
    let (plain_cycles, report) = match app {
        "shpaths" => (
            shpaths_skil(&plain, TRACE_N, SEED).report.sim_cycles,
            shpaths_skil(&traced, TRACE_N, SEED).report,
        ),
        "gauss" => (
            gauss_skil(&plain, TRACE_N, SEED).report.sim_cycles,
            gauss_skil(&traced, TRACE_N, SEED).report,
        ),
        other => panic!("unknown app {other}"),
    };
    assert_eq!(
        plain_cycles, report.sim_cycles,
        "{app}: tracing must not perturb virtual time (off={plain_cycles}, on={})",
        report.sim_cycles
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_driver_small_scale() {
        // miniature Table 1: the driver applies the paper's round-up
        // rule and only compares on the requested grids
        let rows = table1(10, &[1, 2, 3], &[2]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].n, 10);
        assert_eq!(rows[1].n, 10);
        assert_eq!(rows[2].n, 12); // rounded up to a multiple of 3
        assert!(rows[1].dpfl.is_some() && rows[1].c_old.is_some());
        assert!(rows[0].dpfl.is_none() && rows[2].dpfl.is_none());
        assert!(rows.iter().all(|r| r.skil > 0.0));
    }

    #[test]
    fn table2_driver_small_scale() {
        let cells = table2(&[(2, 2)], &[16, 32]);
        assert_eq!(cells.len(), 2);
        for c in &cells {
            assert!(c.dpfl_over_skil() > 1.0, "DPFL slower than Skil");
            assert!(c.skil_over_c() > 1.0, "Skil slower than C when compute-bound");
        }
        // times grow with n
        assert!(cells[1].skil > cells[0].skil);
    }

    #[test]
    fn aside_drivers() {
        let (skil, c) = matmul20(2, 16);
        assert!(skil > c, "Skil matmul slower than equally optimized C");
        let (nopiv, piv) = gauss_pivot_ratio(4, 16);
        assert!(piv > nopiv, "pivoting costs more");
    }
}
