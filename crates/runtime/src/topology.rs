//! Physical and virtual topologies.
//!
//! The simulated machine is a 2-D mesh of processors (the Parsytec MC's
//! physical interconnect). Parix offers *virtual topologies* — ring and
//! 2-D torus — that the paper's skeletons request through the `distr`
//! argument of `array_create` (`DISTR_DEFAULT`, `DISTR_RING`,
//! `DISTR_TORUS2D`). A virtual topology embeds its wrap-around links into
//! the mesh with dilation ≤ 2 (the classic folded embedding), so every
//! virtual neighbour is at most two physical hops away. Code that does
//! *not* use virtual topologies (the paper's older C comparator) pays the
//! full mesh distance for wrap-around traffic instead.

use crate::error::RtError;

/// Which virtual (software) topology a distributed structure is mapped
/// onto. Mirrors the paper's `DISTR_*` constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distr {
    /// Map directly onto the hardware topology (the 2-D mesh).
    Default,
    /// Ring virtual topology.
    Ring,
    /// 2-D torus virtual topology.
    Torus2d,
}

/// The physical 2-D mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mesh {
    /// Number of mesh rows.
    pub rows: usize,
    /// Number of mesh columns.
    pub cols: usize,
}

impl Mesh {
    /// Build a mesh; `rows * cols` is the processor count.
    pub fn new(rows: usize, cols: usize) -> Result<Self, RtError> {
        if rows == 0 || cols == 0 {
            return Err(RtError::BadConfig(format!("degenerate mesh {rows}x{cols}")));
        }
        Ok(Mesh { rows, cols })
    }

    /// The most nearly square factorization of `n`, preferring more rows
    /// (an `8x4` mesh for 32 processors, as in the paper's Table 2).
    pub fn near_square(n: usize) -> Result<Self, RtError> {
        if n == 0 {
            return Err(RtError::BadConfig("zero processors".into()));
        }
        let mut best = (n, 1);
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                best = (n / d, d);
            }
            d += 1;
        }
        Mesh::new(best.0, best.1)
    }

    /// Total processor count.
    pub fn procs(&self) -> usize {
        self.rows * self.cols
    }

    /// Row-major coordinates of processor `id`.
    pub fn coords(&self, id: usize) -> (usize, usize) {
        debug_assert!(id < self.procs());
        (id / self.cols, id % self.cols)
    }

    /// Processor id at `(row, col)`.
    pub fn id(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Manhattan hop distance between two processors on the mesh.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }
}

/// The physical interconnect of the simulated machine.
///
/// The paper's machine is a 2-D mesh; the zoo adds a hypercube, a
/// `k`-ary fat tree, and a heterogeneous mesh with a slow vertical cut.
/// Every variant exposes the same two facts the rest of the simulator
/// needs: the processor count and a **weighted hop metric** per
/// `src → dst` pair. The hop metric is the *only* topology-dependent
/// input to message cost ([`CostModel::transit`](crate::CostModel)
/// charges `per_hop * hops`), so `Topology::Mesh2d` reproduces the
/// seed simulator bit for bit.
///
/// Processor ids stay row-major over a logical process grid
/// ([`Topology::grid`]) regardless of the physical wiring — arrays are
/// laid out on the grid, the interconnect only prices the messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The paper's 2-D mesh (Manhattan hop metric). The default.
    Mesh2d(Mesh),
    /// A `dims`-dimensional hypercube of `2^dims` processors; the hop
    /// metric is the Hamming distance between ids.
    Hypercube {
        /// log2 of the processor count.
        dims: u32,
    },
    /// A fat tree with `levels` switch levels of down-arity `arity`;
    /// `arity^levels` leaves (processors). Leaves whose base-`arity`
    /// ids share a longer prefix meet at a lower switch: the hop metric
    /// is `2 * (levels - common prefix length)` (up to the meeting
    /// switch and back down).
    FatTree {
        /// Number of switch levels above the leaves.
        levels: u32,
        /// Down-links per switch.
        arity: usize,
    },
    /// A 2-D mesh whose links crossing the vertical cut left of column
    /// `cut_col` are `factor`× slower: each crossing counts as `factor`
    /// hops instead of 1 (think one oversubscribed cable tray between
    /// two halves of the machine room).
    Hetero {
        /// The underlying mesh.
        mesh: Mesh,
        /// Links between columns `cut_col - 1` and `cut_col` are slow.
        cut_col: usize,
        /// Weight of one slow-link crossing, in ordinary hops.
        factor: usize,
    },
}

impl Topology {
    /// The default physical topology for `n` processors: the most
    /// nearly square 2-D mesh, exactly as the seed simulator built it.
    pub fn default_for(n: usize) -> Result<Self, RtError> {
        Ok(Topology::Mesh2d(Mesh::near_square(n)?))
    }

    /// Parse a `--topology` spec:
    ///
    /// * `mesh2d:RxC`
    /// * `hypercube:N` (N a power of two)
    /// * `fattree:L,A` (L switch levels, down-arity A ⇒ `A^L` procs)
    /// * `hetero:mesh2d:RxC:slowlinks=colK*F` (crossing the vertical
    ///   cut left of column K costs F hops)
    pub fn parse(spec: &str) -> Result<Self, RtError> {
        let bad = |msg: String| RtError::BadConfig(format!("topology `{spec}`: {msg}"));
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        match kind {
            "mesh2d" => {
                let (r, c) = parse_mesh_shape(rest).map_err(&bad)?;
                Ok(Topology::Mesh2d(Mesh::new(r, c)?))
            }
            "hypercube" => {
                let n: usize =
                    rest.parse().map_err(|_| bad(format!("bad processor count `{rest}`")))?;
                if n == 0 || !n.is_power_of_two() {
                    return Err(bad(format!("{n} processors is not a power of two")));
                }
                Ok(Topology::Hypercube { dims: n.trailing_zeros() })
            }
            "fattree" => {
                let (l, a) = rest
                    .split_once(',')
                    .ok_or_else(|| bad("expected `fattree:LEVELS,ARITY`".into()))?;
                let levels: u32 =
                    l.trim().parse().map_err(|_| bad(format!("bad level count `{l}`")))?;
                let arity: usize = a.trim().parse().map_err(|_| bad(format!("bad arity `{a}`")))?;
                if levels == 0 || arity < 2 {
                    return Err(bad("need >= 1 level and arity >= 2".into()));
                }
                let leaves = arity
                    .checked_pow(levels)
                    .filter(|&n| n <= 1 << 20)
                    .ok_or_else(|| bad("fat tree too large".into()))?;
                let _ = leaves;
                Ok(Topology::FatTree { levels, arity })
            }
            "hetero" => {
                // hetero:mesh2d:RxC:slowlinks=colK*F
                let mut parts = rest.splitn(3, ':');
                let base = parts.next().unwrap_or("");
                if base != "mesh2d" {
                    return Err(bad(format!("unknown hetero base `{base}` (want mesh2d)")));
                }
                let shape = parts.next().ok_or_else(|| bad("missing mesh shape".into()))?;
                let (r, c) = parse_mesh_shape(shape).map_err(&bad)?;
                let slow = parts.next().ok_or_else(|| bad("missing slowlinks=...".into()))?;
                let slow = slow
                    .strip_prefix("slowlinks=col")
                    .ok_or_else(|| bad("expected `slowlinks=colK*F`".into()))?;
                let (k, f) = slow
                    .split_once('*')
                    .ok_or_else(|| bad("expected `slowlinks=colK*F`".into()))?;
                let cut_col: usize = k.parse().map_err(|_| bad(format!("bad cut column `{k}`")))?;
                let factor: usize = f.parse().map_err(|_| bad(format!("bad slow factor `{f}`")))?;
                if cut_col == 0 || cut_col >= c {
                    return Err(bad(format!("cut column {cut_col} outside 1..{c}")));
                }
                if factor < 1 {
                    return Err(bad("slow factor must be >= 1".into()));
                }
                Ok(Topology::Hetero { mesh: Mesh::new(r, c)?, cut_col, factor })
            }
            other => Err(bad(format!(
                "unknown kind `{other}` (want mesh2d | hypercube | fattree | hetero)"
            ))),
        }
    }

    /// Total processor count.
    pub fn procs(&self) -> usize {
        match *self {
            Topology::Mesh2d(m) => m.procs(),
            Topology::Hypercube { dims } => 1usize << dims,
            Topology::FatTree { levels, arity } => arity.pow(levels),
            Topology::Hetero { mesh, .. } => mesh.procs(),
        }
    }

    /// The logical process grid arrays are laid out on. For mesh-backed
    /// topologies this is the mesh itself; for the others, the most
    /// nearly square factorization of the processor count.
    pub fn grid(&self) -> Mesh {
        match *self {
            Topology::Mesh2d(m) => m,
            Topology::Hetero { mesh, .. } => mesh,
            _ => Mesh::near_square(self.procs()).expect("non-zero processor count"),
        }
    }

    /// Weighted hop distance from `a` to `b` — the number the cost
    /// model multiplies by `per_hop` (and raw links store-and-forward
    /// through). Symmetric; zero iff `a == b`.
    pub fn hops(&self, a: usize, b: usize) -> usize {
        match *self {
            Topology::Mesh2d(m) => m.hops(a, b),
            Topology::Hypercube { .. } => (a ^ b).count_ones() as usize,
            Topology::FatTree { levels, arity } => {
                if a == b {
                    return 0;
                }
                // Climb both leaves until they land under the same
                // switch; each level climbed is one up-hop + one
                // down-hop on the way back.
                let (mut x, mut y, mut up) = (a, b, 0usize);
                while x != y {
                    x /= arity;
                    y /= arity;
                    up += 1;
                }
                debug_assert!(up as u32 <= levels);
                2 * up
            }
            Topology::Hetero { mesh, cut_col, factor } => {
                let base = mesh.hops(a, b);
                let (_, ac) = mesh.coords(a);
                let (_, bc) = mesh.coords(b);
                // A Manhattan route crosses the vertical cut exactly
                // once iff the endpoints lie on opposite sides.
                let crosses = (ac < cut_col) != (bc < cut_col);
                base + if crosses { factor - 1 } else { 0 }
            }
        }
    }

    /// The canonical spec string (`parse` round-trips it).
    pub fn spec(&self) -> String {
        match *self {
            Topology::Mesh2d(m) => format!("mesh2d:{}x{}", m.rows, m.cols),
            Topology::Hypercube { dims } => format!("hypercube:{}", 1usize << dims),
            Topology::FatTree { levels, arity } => format!("fattree:{levels},{arity}"),
            Topology::Hetero { mesh, cut_col, factor } => {
                format!("hetero:mesh2d:{}x{}:slowlinks=col{cut_col}*{factor}", mesh.rows, mesh.cols)
            }
        }
    }

    /// Short kind name (`mesh2d`, `hypercube`, `fattree`, `hetero`).
    pub fn kind(&self) -> &'static str {
        match self {
            Topology::Mesh2d(_) => "mesh2d",
            Topology::Hypercube { .. } => "hypercube",
            Topology::FatTree { .. } => "fattree",
            Topology::Hetero { .. } => "hetero",
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

fn parse_mesh_shape(s: &str) -> Result<(usize, usize), String> {
    let (r, c) = s.split_once('x').ok_or_else(|| format!("bad mesh shape `{s}` (want RxC)"))?;
    let rows = r.trim().parse().map_err(|_| format!("bad row count `{r}`"))?;
    let cols = c.trim().parse().map_err(|_| format!("bad column count `{c}`"))?;
    Ok((rows, cols))
}

/// A ring over all processors of the machine.
///
/// With `virtual_links` (Parix virtual topologies) every ring step costs
/// at most 2 physical hops; without, the wrap edge from the last processor
/// back to the first costs the full mesh distance.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    topo: Topology,
    virtual_links: bool,
}

impl Ring {
    /// Build the ring view of a mesh.
    pub fn new(mesh: Mesh, virtual_links: bool) -> Self {
        Ring { topo: Topology::Mesh2d(mesh), virtual_links }
    }

    /// Build the ring view of an arbitrary physical topology, so ring
    /// steps are priced by that topology's hop metric instead of
    /// assuming a mesh.
    pub fn on(topo: Topology, virtual_links: bool) -> Self {
        Ring { topo, virtual_links }
    }

    /// Ring size.
    pub fn len(&self) -> usize {
        self.topo.procs()
    }

    /// Whether the ring is empty (never true for a valid mesh).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Successor of `id` on the ring and the hop cost of that link.
    pub fn next(&self, id: usize) -> (usize, usize) {
        let n = self.len();
        let nxt = (id + 1) % n;
        (nxt, self.link_hops(id, nxt))
    }

    /// Predecessor of `id` on the ring and the hop cost of that link.
    pub fn prev(&self, id: usize) -> (usize, usize) {
        let n = self.len();
        let prv = (id + n - 1) % n;
        (prv, self.link_hops(id, prv))
    }

    fn link_hops(&self, a: usize, b: usize) -> usize {
        if self.virtual_links {
            // Folded/snake embedding: a Hamiltonian ring on a mesh has
            // dilation <= 2 everywhere.
            self.topo.hops(a, b).clamp(1, 2)
        } else {
            self.topo.hops(a, b)
        }
    }
}

/// A 2-D torus over a `rows x cols` process grid.
#[derive(Debug, Clone, Copy)]
pub struct Torus2d {
    /// The process-grid shape (usually equal to the physical mesh).
    pub grid: Mesh,
    virtual_links: bool,
    topo: Topology,
}

impl Torus2d {
    /// View the machine's mesh as a torus of the same shape.
    pub fn new(mesh: Mesh, virtual_links: bool) -> Self {
        Torus2d { grid: mesh, virtual_links, topo: Topology::Mesh2d(mesh) }
    }

    /// View an arbitrary physical topology as a torus over its logical
    /// process grid; steps are priced by the topology's hop metric.
    pub fn on(topo: Topology, virtual_links: bool) -> Self {
        Torus2d { grid: topo.grid(), virtual_links, topo }
    }

    /// Grid coordinates of a processor.
    pub fn coords(&self, id: usize) -> (usize, usize) {
        self.grid.coords(id)
    }

    /// Processor at torus coordinates (wrapped).
    pub fn at(&self, row: isize, col: isize) -> usize {
        let r = row.rem_euclid(self.grid.rows as isize) as usize;
        let c = col.rem_euclid(self.grid.cols as isize) as usize;
        self.grid.id(r, c)
    }

    /// Neighbour one step in the given direction, with its hop cost.
    pub fn step(&self, id: usize, drow: isize, dcol: isize) -> (usize, usize) {
        let (r, c) = self.coords(id);
        let dst = self.at(r as isize + drow, c as isize + dcol);
        let hops = if self.virtual_links {
            // Folded torus embedding: dilation 2.
            self.topo.hops(id, dst).clamp(1, 2)
        } else {
            self.topo.hops(id, dst)
        };
        (dst, hops)
    }

    /// West neighbour (wrap) and hop cost.
    pub fn west(&self, id: usize) -> (usize, usize) {
        self.step(id, 0, -1)
    }

    /// East neighbour (wrap) and hop cost.
    pub fn east(&self, id: usize) -> (usize, usize) {
        self.step(id, 0, 1)
    }

    /// North neighbour (wrap) and hop cost.
    pub fn north(&self, id: usize) -> (usize, usize) {
        self.step(id, -1, 0)
    }

    /// South neighbour (wrap) and hop cost.
    pub fn south(&self, id: usize) -> (usize, usize) {
        self.step(id, 1, 0)
    }
}

/// The binomial reduction/broadcast tree the collectives use.
///
/// Processors are renumbered relative to `root`; in round `r` (counting
/// from 0) processor `x` with lowest set bit `2^r` exchanges with
/// `x - 2^r`. This yields `ceil(log2 p)` rounds, matching the paper's
/// "virtual tree topology" for `array_fold` and broadcasts.
#[derive(Debug, Clone, Copy)]
pub struct BinomialTree {
    n: usize,
    root: usize,
}

impl BinomialTree {
    /// Tree over `n` processors rooted at `root`.
    pub fn new(n: usize, root: usize) -> Self {
        debug_assert!(root < n);
        BinomialTree { n, root }
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        let mut r = 0;
        while (1usize << r) < self.n {
            r += 1;
        }
        r
    }

    fn rel(&self, id: usize) -> usize {
        (id + self.n - self.root) % self.n
    }

    fn abs(&self, rel: usize) -> usize {
        (rel + self.root) % self.n
    }

    /// The parent of `id` in the tree, or `None` for the root.
    pub fn parent(&self, id: usize) -> Option<usize> {
        let x = self.rel(id);
        if x == 0 {
            return None;
        }
        let low = x & x.wrapping_neg();
        Some(self.abs(x - low))
    }

    /// Children of `id`, in round order: child `k` is `id`'s partner in
    /// round `k`. The collectives walk them in reverse, largest subtree
    /// first, with `.rev()` — no allocation either way.
    pub fn children(
        &self,
        id: usize,
    ) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator {
        let x = self.rel(id);
        // Children sit at the bits below the node's own lowest set bit
        // (every bit, for the root) that stay inside the tree.
        let limit = if x == 0 { self.n } else { x & x.wrapping_neg() };
        let mut rounds = 0u32;
        while (1 << rounds) < limit && x + (1 << rounds) < self.n {
            rounds += 1;
        }
        let tree = *self;
        (0..rounds).map(move |k| tree.abs(x + (1 << k)))
    }

    /// The round in which `id` receives during a broadcast from the root
    /// (the position of its lowest set bit), or `None` for the root.
    pub fn recv_round(&self, id: usize) -> Option<usize> {
        let x = self.rel(id);
        if x == 0 {
            None
        } else {
            Some(x.trailing_zeros() as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_coords_roundtrip() {
        let m = Mesh::new(3, 4).unwrap();
        for id in 0..12 {
            let (r, c) = m.coords(id);
            assert_eq!(m.id(r, c), id);
        }
    }

    #[test]
    fn mesh_rejects_degenerate() {
        assert!(Mesh::new(0, 4).is_err());
        assert!(Mesh::new(4, 0).is_err());
    }

    #[test]
    fn near_square_factorizations() {
        assert_eq!(Mesh::near_square(64).unwrap(), Mesh { rows: 8, cols: 8 });
        assert_eq!(Mesh::near_square(32).unwrap(), Mesh { rows: 8, cols: 4 });
        assert_eq!(Mesh::near_square(16).unwrap(), Mesh { rows: 4, cols: 4 });
        assert_eq!(Mesh::near_square(7).unwrap(), Mesh { rows: 7, cols: 1 });
        assert_eq!(Mesh::near_square(1).unwrap(), Mesh { rows: 1, cols: 1 });
        assert!(Mesh::near_square(0).is_err());
    }

    #[test]
    fn mesh_hops_manhattan() {
        let m = Mesh::new(4, 4).unwrap();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 1);
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(m.hops(5, 10), 2);
    }

    #[test]
    fn ring_wrap_costs() {
        let m = Mesh::new(2, 4).unwrap();
        let rv = Ring::new(m, true);
        let rp = Ring::new(m, false);
        // internal step
        assert_eq!(rv.next(0).0, 1);
        assert!(rv.next(0).1 <= 2);
        // wrap edge: 7 -> 0. Mesh distance from (1,3) to (0,0) is 4.
        assert_eq!(rp.next(7), (0, 4));
        assert_eq!(rv.next(7).0, 0);
        assert!(rv.next(7).1 <= 2);
        // prev is the inverse of next
        let (nxt, _) = rv.next(3);
        assert_eq!(rv.prev(nxt).0, 3);
    }

    #[test]
    fn torus_neighbours_wrap() {
        let m = Mesh::new(4, 4).unwrap();
        let t = Torus2d::new(m, true);
        assert_eq!(t.west(0).0, 3);
        assert_eq!(t.east(3).0, 0);
        assert_eq!(t.north(0).0, 12);
        assert_eq!(t.south(12).0, 0);
        // interior neighbours cost 1 hop
        assert_eq!(t.east(5), (6, 1));
        // virtual wrap costs at most 2 hops
        assert!(t.west(0).1 <= 2);
        // non-virtual wrap costs the full mesh distance
        let tp = Torus2d::new(m, false);
        assert_eq!(tp.west(0), (3, 3));
        assert_eq!(tp.north(0), (12, 3));
    }

    #[test]
    fn torus_at_wraps_negative() {
        let m = Mesh::new(4, 4).unwrap();
        let t = Torus2d::new(m, true);
        assert_eq!(t.at(-1, -1), 15);
        assert_eq!(t.at(4, 4), 0);
    }

    #[test]
    fn binomial_tree_structure() {
        let t = BinomialTree::new(8, 0);
        assert_eq!(t.rounds(), 3);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(5), Some(4));
        assert_eq!(t.parent(6), Some(4));
        assert_eq!(t.parent(7), Some(6));
        assert_eq!(t.children(0).collect::<Vec<_>>(), vec![1, 2, 4]);
        assert_eq!(t.children(4).rev().collect::<Vec<_>>(), vec![6, 5]);
        assert_eq!(t.children(7).len(), 0);
    }

    #[test]
    fn binomial_tree_rooted_elsewhere() {
        let t = BinomialTree::new(8, 3);
        assert_eq!(t.parent(3), None);
        // every non-root eventually reaches the root
        for id in 0..8 {
            let mut cur = id;
            let mut steps = 0;
            while let Some(p) = t.parent(cur) {
                cur = p;
                steps += 1;
                assert!(steps <= 8, "parent chain does not terminate");
            }
            assert_eq!(cur, 3);
        }
    }

    #[test]
    fn binomial_tree_children_parents_consistent() {
        for n in [1usize, 2, 3, 5, 7, 8, 13, 16, 64] {
            for root in [0, n / 2, n - 1] {
                let t = BinomialTree::new(n, root);
                let mut seen = vec![false; n];
                seen[root] = true;
                for id in 0..n {
                    for ch in t.children(id) {
                        assert_eq!(t.parent(ch), Some(id));
                        assert!(!seen[ch], "child visited twice");
                        seen[ch] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "tree spans all nodes (n={n})");
            }
        }
    }

    #[test]
    fn binomial_nonpower_of_two() {
        let t = BinomialTree::new(6, 0);
        assert_eq!(t.rounds(), 3);
        let mut total = 0;
        for id in 0..6 {
            total += t.children(id).len();
        }
        assert_eq!(total, 5, "5 edges span 6 nodes");
    }

    #[test]
    fn topology_parse_roundtrips() {
        for spec in [
            "mesh2d:4x4",
            "mesh2d:8x4",
            "hypercube:16",
            "hypercube:2",
            "fattree:2,4",
            "fattree:3,2",
            "hetero:mesh2d:4x4:slowlinks=col2*8",
        ] {
            let t = Topology::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(t.spec(), spec);
            assert_eq!(Topology::parse(&t.spec()).unwrap(), t);
        }
    }

    #[test]
    fn topology_parse_rejects_malformed() {
        for spec in [
            "mesh2d:0x4",
            "mesh2d:4",
            "hypercube:12",
            "hypercube:0",
            "fattree:2",
            "fattree:0,4",
            "fattree:2,1",
            "hetero:mesh2d:4x4",
            "hetero:mesh2d:4x4:slowlinks=col0*8",
            "hetero:mesh2d:4x4:slowlinks=col4*8",
            "hetero:ring:4x4:slowlinks=col2*8",
            "dragonfly:16",
        ] {
            assert!(Topology::parse(spec).is_err(), "{spec} should be rejected");
        }
    }

    #[test]
    fn mesh2d_topology_matches_mesh_exactly() {
        let m = Mesh::new(4, 4).unwrap();
        let t = Topology::Mesh2d(m);
        assert_eq!(t.procs(), 16);
        assert_eq!(t.grid(), m);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.hops(a, b), m.hops(a, b));
            }
        }
    }

    #[test]
    fn hypercube_hops_are_hamming() {
        let t = Topology::parse("hypercube:16").unwrap();
        assert_eq!(t.procs(), 16);
        // corner routes: opposite corners differ in every bit
        assert_eq!(t.hops(0, 15), 4);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(5, 10), 4); // 0101 vs 1010
        assert_eq!(t.hops(3, 3), 0);
        // the grid is the near-square factorization
        assert_eq!(t.grid(), Mesh { rows: 4, cols: 4 });
    }

    #[test]
    fn fattree_hops_climb_to_common_switch() {
        let t = Topology::parse("fattree:2,4").unwrap();
        assert_eq!(t.procs(), 16);
        // same bottom switch: up one level and back down
        assert_eq!(t.hops(0, 1), 2);
        assert_eq!(t.hops(0, 3), 2);
        // different bottom switch: through the root
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(0, 15), 4); // corner route
        assert_eq!(t.hops(3, 12), 4);
        assert_eq!(t.hops(7, 7), 0);
        // deep binary fat tree corner route
        let d = Topology::parse("fattree:3,2").unwrap();
        assert_eq!(d.procs(), 8);
        assert_eq!(d.hops(0, 1), 2);
        assert_eq!(d.hops(0, 7), 6);
        assert_eq!(d.hops(3, 4), 6);
    }

    #[test]
    fn hetero_cut_weights_crossings() {
        let t = Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*8").unwrap();
        let m = Mesh::new(4, 4).unwrap();
        assert_eq!(t.procs(), 16);
        assert_eq!(t.grid(), m);
        // same side of the cut: plain Manhattan
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(2, 3), 1);
        // one crossing: the slow link counts as `factor` hops
        assert_eq!(t.hops(1, 2), 1 + 7);
        assert_eq!(t.hops(0, 15), 6 + 7);
        // symmetric
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
        // factor 1 degenerates to the plain mesh
        let flat = Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*1").unwrap();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(flat.hops(a, b), m.hops(a, b));
            }
        }
    }

    #[test]
    fn topology_hops_symmetric_zero_diagonal() {
        for spec in
            ["mesh2d:3x5", "hypercube:8", "fattree:2,3", "hetero:mesh2d:3x5:slowlinks=col3*4"]
        {
            let t = Topology::parse(spec).unwrap();
            let n = t.procs();
            for a in 0..n {
                assert_eq!(t.hops(a, a), 0, "{spec}");
                for b in 0..n {
                    assert_eq!(t.hops(a, b), t.hops(b, a), "{spec}");
                }
            }
        }
    }

    /// Hop-metric pins for the corner routes of the non-mesh topologies.
    #[test]
    fn hop_metric_corner_routes() {
        let cube = Topology::parse("hypercube:32").unwrap();
        assert_eq!(cube.hops(0, 31), 5, "antipodal corners of a 5-cube");
        assert_eq!(cube.hops(0, 1), 1);
        assert_eq!(cube.hops(10, 21), 5, "01010 vs 10101 differ everywhere");

        let ft = Topology::parse("fattree:2,4").unwrap();
        assert_eq!(ft.hops(0, 3), 2, "same leaf switch");
        assert_eq!(ft.hops(0, 15), 4, "opposite pods climb to the root");
        assert_eq!(ft.hops(12, 15), 2);

        let deep = Topology::parse("fattree:3,2").unwrap();
        assert_eq!(deep.hops(0, 1), 2);
        assert_eq!(deep.hops(0, 7), 6, "full climb in a 3-level tree");
        assert_eq!(deep.hops(2, 3), 2);
        assert_eq!(deep.hops(1, 2), 4, "one level up");

        let het = Topology::parse("hetero:mesh2d:4x4:slowlinks=col2*64").unwrap();
        assert_eq!(het.hops(0, 1), 1, "fast side untouched");
        assert_eq!(het.hops(1, 2), 1 + 63, "crossing the cut pays the factor");
        assert_eq!(het.hops(0, 15), 6 + 63, "Manhattan plus one crossing surcharge");
    }

    #[test]
    fn ring_on_topology_prices_links_by_metric() {
        let hc = Topology::parse("hypercube:8").unwrap();
        let r = Ring::on(hc, false);
        // 3 -> 4 flips every bit of a 3-cube
        assert_eq!(r.next(3), (4, 3));
        // virtual links still clamp to the folded embedding
        let rv = Ring::on(hc, true);
        assert!(rv.next(3).1 <= 2);
        let het = Topology::parse("hetero:mesh2d:2x4:slowlinks=col2*8").unwrap();
        let rh = Ring::on(het, false);
        assert_eq!(rh.next(1), (2, 8)); // crosses the slow cut
    }

    #[test]
    fn recv_round_matches_bit() {
        let t = BinomialTree::new(16, 0);
        assert_eq!(t.recv_round(0), None);
        assert_eq!(t.recv_round(1), Some(0));
        assert_eq!(t.recv_round(2), Some(1));
        assert_eq!(t.recv_round(12), Some(2));
        assert_eq!(t.recv_round(8), Some(3));
    }
}
