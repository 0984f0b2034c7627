//! The stencil intermediate representation.
//!
//! A [`Stencil`] describes one grid-point update as a linear,
//! single-assignment sequence of floating-point operations over:
//!
//! * **taps** — grid loads at fixed [`Offset`]s from the update point,
//!   possibly from several input arrays;
//! * **coefficients** — named scalar constants;
//! * **temporaries** — results of earlier operations.
//!
//! This is exactly the information the SARIS method consumes: the taps
//! become indirect-stream index entries, the operation order becomes the
//! point-loop schedule (paper Figure 2b), and the operation count gives the
//! FLOPs-per-point column of Table 1.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::StencilError;
use crate::geom::{Extent, Halo, Offset, Point, Space};
use crate::grid::Grid;
use crate::key::key_of;

/// Identifier of an array declared by a stencil.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

impl ArrayId {
    /// Position of the array in [`Stencil::arrays`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// Role of a declared array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayRole {
    /// Read by taps.
    Input,
    /// Written at the update point.
    Output,
}

/// An array declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayDecl {
    name: String,
    role: ArrayRole,
}

impl ArrayDecl {
    /// The array's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The array's role.
    pub fn role(&self) -> ArrayRole {
        self.role
    }
}

/// A grid load: `array[point + offset]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tap {
    /// Source array.
    pub array: ArrayId,
    /// Displacement from the update point.
    pub offset: Offset,
}

/// A named scalar constant.
#[derive(Debug, Clone, PartialEq)]
pub struct Coeff {
    name: String,
    value: f64,
}

/// By the value's bits: `0.0` and `-0.0` are different coefficients.
impl Hash for Coeff {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Coeff { name, value } = self;
        (name, value.to_bits()).hash(state);
    }
}

impl Coeff {
    /// The coefficient's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coefficient's value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

/// An operand of a point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A grid load (index into [`Stencil::taps`]).
    Tap(usize),
    /// A coefficient (index into [`Stencil::coeffs`]).
    Coeff(usize),
    /// An earlier operation's result (index into [`Stencil::ops`]).
    Tmp(usize),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Tap(i) => write!(f, "tap{i}"),
            Operand::Coeff(i) => write!(f, "c{i}"),
            Operand::Tmp(i) => write!(f, "t{i}"),
        }
    }
}

/// Kind of a two-operand point operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
}

impl BinKind {
    /// Applies the operation.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
        }
    }
}

/// One operation of the point-update sequence. Operation `i` defines
/// temporary `Tmp(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointOp {
    /// A two-operand operation (1 FLOP).
    Bin {
        /// Operation kind.
        kind: BinKind,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Fused multiply-add `a * b + c` (2 FLOPs).
    Fma {
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
}

impl PointOp {
    /// FLOPs contributed by this operation.
    pub fn flops(&self) -> u64 {
        match self {
            PointOp::Bin { .. } => 1,
            PointOp::Fma { .. } => 2,
        }
    }

    /// The operands in architectural source order (`rs1, rs2[, rs3]`).
    pub fn operands(&self) -> Vec<Operand> {
        match self {
            PointOp::Bin { a, b, .. } => vec![*a, *b],
            PointOp::Fma { a, b, c } => vec![*a, *b, *c],
        }
    }
}

impl fmt::Display for PointOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointOp::Bin { kind, a, b } => {
                let op = match kind {
                    BinKind::Add => "+",
                    BinKind::Sub => "-",
                    BinKind::Mul => "*",
                };
                write!(f, "{a} {op} {b}")
            }
            PointOp::Fma { a, b, c } => write!(f, "{a} * {b} + {c}"),
        }
    }
}

/// Static, per-point characteristics of a stencil — the columns of the
/// paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilStats {
    /// Dimensionality.
    pub space: Space,
    /// Maximum radius along any axis ("Rad.").
    pub radius: u32,
    /// Grid loads per point ("#Loads").
    pub loads: usize,
    /// Coefficients per point ("#Coeffs.").
    pub coeffs: usize,
    /// Floating-point operations per point ("#FLOPs").
    pub flops: u64,
}

impl fmt::Display for StencilStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} r{} loads={} coeffs={} flops={}",
            self.space, self.radius, self.loads, self.coeffs, self.flops
        )
    }
}

/// A complete stencil: arrays, taps, coefficients and the point-update
/// operation sequence. Construct with [`StencilBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil {
    /// [`key_of`] every other field, computed once by [`Stencil::sealed`].
    fingerprint: u64,
    name: String,
    space: Space,
    arrays: Vec<ArrayDecl>,
    taps: Vec<Tap>,
    coeffs: Vec<Coeff>,
    ops: Vec<PointOp>,
    result: Operand,
    output: ArrayId,
}

/// The stored [`Stencil::fingerprint`]: no key walks a stencil again.
impl Hash for Stencil {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fingerprint.hash(state);
    }
}

impl Stencil {
    /// The stencil's name (e.g. `"jacobi_2d"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A structural fingerprint covering every field: the name, arrays,
    /// taps, coefficients (values by their bits, so `0.0` and `-0.0`
    /// differ), the operation sequence and the output binding. Stencils
    /// with equal fingerprints compile to identical kernels for identical
    /// extents and options, which is what the kernel cache keys on.
    /// Computed once, when the stencil is built ([`key`](crate::key)).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `self` with its fingerprint: the key of every other field.
    fn sealed(mut self) -> Stencil {
        let Stencil {
            fingerprint: _,
            name,
            space,
            arrays,
            taps,
            coeffs,
            ops,
            result,
            output,
        } = &self;
        self.fingerprint = key_of(&(name, space, arrays, taps, coeffs, ops, result, output));
        self
    }

    /// The stencil's dimensionality.
    pub fn space(&self) -> Space {
        self.space
    }

    /// Declared arrays, in declaration order.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// Grid loads per point.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Scalar coefficients.
    pub fn coeffs(&self) -> &[Coeff] {
        &self.coeffs
    }

    /// The point-update operation sequence.
    pub fn ops(&self) -> &[PointOp] {
        &self.ops
    }

    /// The operand stored to the output array at the update point.
    pub fn result(&self) -> Operand {
        self.result
    }

    /// The output array.
    pub fn output(&self) -> ArrayId {
        self.output
    }

    /// The input arrays, in declaration order.
    pub fn input_arrays(&self) -> impl Iterator<Item = ArrayId> + '_ {
        self.arrays
            .iter()
            .enumerate()
            .filter(|(_, a)| a.role == ArrayRole::Input)
            .map(|(i, _)| ArrayId(i))
    }

    /// The halo required around the interior.
    pub fn halo(&self) -> Halo {
        Halo::covering(self.taps.iter().map(|t| &t.offset))
    }

    /// Per-point static characteristics (Table 1 row).
    pub fn stats(&self) -> StencilStats {
        StencilStats {
            space: self.space,
            radius: self.halo().max_radius(),
            loads: self.taps.len(),
            coeffs: self.coeffs.len(),
            flops: self.ops.iter().map(PointOp::flops).sum(),
        }
    }

    /// Evaluates one point update given the input arrays (indexed by
    /// [`ArrayId`]; the slot of the output array is ignored).
    ///
    /// This is the semantic ground truth used by the reference executor
    /// and by verification of simulated kernels.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is shorter than the declared array list or a tap
    /// reads outside an input grid.
    pub fn eval_point(&self, arrays: &[&Grid], p: Point) -> f64 {
        let mut tmps = Vec::with_capacity(self.ops.len());
        let read = |operand: Operand, tmps: &[f64]| -> f64 {
            match operand {
                Operand::Tap(i) => {
                    let tap = &self.taps[i];
                    arrays[tap.array.0].get_off(p, tap.offset)
                }
                Operand::Coeff(i) => self.coeffs[i].value,
                Operand::Tmp(i) => tmps[i],
            }
        };
        for op in &self.ops {
            let v = match op {
                PointOp::Bin { kind, a, b } => kind.apply(read(*a, &tmps), read(*b, &tmps)),
                PointOp::Fma { a, b, c } => {
                    read(*a, &tmps).mul_add(read(*b, &tmps), read(*c, &tmps))
                }
            };
            tmps.push(v);
        }
        read(self.result, &tmps)
    }

    /// The interior extent of a tile of extent `tile` for this stencil.
    pub fn interior(&self, tile: Extent) -> Extent {
        tile.interior_extent(self.halo())
    }

    /// Rewrites the accumulation chain of this stencil across
    /// `accumulators` parallel partial sums, combined at the end — the
    /// "arithmetic reassociation" optimization the paper applies to both
    /// code variants. Longer dependency chains limit a pipelined FPU: a
    /// chain of fused multiply-adds with latency `L` stalls unless `L`
    /// independent operations separate consecutive links; splitting the
    /// sum across accumulators multiplies the available parallelism.
    ///
    /// The transform is value-preserving up to floating-point
    /// reassociation error (like `-Ofast`); verification against the
    /// original stencil must use a small tolerance.
    ///
    /// Returns a clone when `accumulators <= 1` or the chain is too short
    /// to benefit.
    pub fn reassociated(&self, accumulators: usize) -> Stencil {
        let Some(result_tmp) = (match self.result {
            Operand::Tmp(i) => Some(i),
            _ => None,
        }) else {
            return self.clone();
        };
        if accumulators <= 1 {
            return self.clone();
        }
        // Count uses of each temporary (chain links must be single-use).
        let mut uses = vec![0usize; self.ops.len()];
        for op in &self.ops {
            for operand in op.operands() {
                if let Operand::Tmp(t) = operand {
                    uses[t] += 1;
                }
            }
        }
        if let Operand::Tmp(t) = self.result {
            uses[t] += 1;
        }
        // Walk back from the result through non-additive single-tmp ops
        // (e.g. a final scale): these stay as post-chain ops.
        let additive_prev = |op: &PointOp| -> Option<usize> {
            match op {
                PointOp::Fma {
                    c: Operand::Tmp(p), ..
                } => Some(*p),
                PointOp::Bin {
                    kind: BinKind::Add,
                    a: Operand::Tmp(p),
                    ..
                } => Some(*p),
                PointOp::Bin {
                    kind: BinKind::Add,
                    b: Operand::Tmp(p),
                    ..
                } => Some(*p),
                PointOp::Bin {
                    kind: BinKind::Sub,
                    a: Operand::Tmp(p),
                    ..
                } => Some(*p),
                _ => None,
            }
        };
        let single_tmp_operand = |op: &PointOp| -> Option<usize> {
            let tmps: Vec<usize> = op
                .operands()
                .into_iter()
                .filter_map(|o| match o {
                    Operand::Tmp(t) => Some(t),
                    _ => None,
                })
                .collect();
            (tmps.len() == 1).then(|| tmps[0])
        };
        let mut post: Vec<usize> = Vec::new();
        let mut cur = result_tmp;
        loop {
            let op = &self.ops[cur];
            if additive_prev(op).is_some() {
                break;
            }
            match single_tmp_operand(op) {
                Some(p) if uses[p] == 1 => {
                    post.push(cur);
                    cur = p;
                }
                _ => return self.clone(),
            }
        }
        // Collect the additive spine ending at `cur`.
        let mut spine = vec![cur];
        loop {
            let op = &self.ops[*spine.last().expect("nonempty")];
            let Some(p) = additive_prev(op) else { break };
            if uses[p] != 1 {
                break;
            }
            spine.push(p);
        }
        spine.reverse(); // head first
        if spine.len() < 2 * accumulators {
            return self.clone();
        }
        let in_spine: std::collections::HashSet<usize> = spine.iter().copied().collect();
        let in_post: std::collections::HashSet<usize> = post.iter().copied().collect();

        // Rebuild the op list.
        let mut new_ops: Vec<PointOp> = Vec::with_capacity(self.ops.len() + accumulators);
        let mut remap: Vec<Option<Operand>> = vec![None; self.ops.len()];
        let map_operand = |o: Operand, remap: &[Option<Operand>]| -> Operand {
            match o {
                Operand::Tmp(t) => remap[t].expect("operand emitted before use"),
                other => other,
            }
        };
        let map_op = |op: &PointOp, remap: &[Option<Operand>]| -> PointOp {
            match *op {
                PointOp::Bin { kind, a, b } => PointOp::Bin {
                    kind,
                    a: map_operand(a, remap),
                    b: map_operand(b, remap),
                },
                PointOp::Fma { a, b, c } => PointOp::Fma {
                    a: map_operand(a, remap),
                    b: map_operand(b, remap),
                    c: map_operand(c, remap),
                },
            }
        };
        let mut acc_val: Vec<Option<Operand>> = vec![None; accumulators];
        let mut term_idx = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            if in_post.contains(&i) {
                continue; // re-emitted after the combine
            }
            if !in_spine.contains(&i) {
                // Regular op: re-emit with remapped operands.
                new_ops.push(map_op(op, &remap));
                remap[i] = Some(Operand::Tmp(new_ops.len() - 1));
                continue;
            }
            if i == spine[0] {
                // Head initializes accumulator 0 with its full op.
                new_ops.push(map_op(op, &remap));
                acc_val[0] = Some(Operand::Tmp(new_ops.len() - 1));
                continue;
            }
            // Spine link: accumulate its term into a rotating accumulator.
            // Subtraction terms always go to accumulator 0 (which is
            // guaranteed initialized by the head).
            let is_sub = matches!(
                op,
                PointOp::Bin {
                    kind: BinKind::Sub,
                    ..
                }
            );
            let j = if is_sub {
                0
            } else {
                term_idx += 1;
                term_idx % accumulators
            };
            let emitted = match (op, acc_val[j]) {
                (PointOp::Fma { a, b, .. }, Some(acc)) => Some(PointOp::Fma {
                    a: map_operand(*a, &remap),
                    b: map_operand(*b, &remap),
                    c: acc,
                }),
                (PointOp::Fma { a, b, .. }, None) => Some(PointOp::Bin {
                    kind: BinKind::Mul,
                    a: map_operand(*a, &remap),
                    b: map_operand(*b, &remap),
                }),
                (
                    PointOp::Bin {
                        kind: BinKind::Add,
                        a,
                        b,
                    },
                    maybe_acc,
                ) => {
                    // The non-spine operand is the term.
                    let term = if matches!(a, Operand::Tmp(t) if in_spine.contains(t)) {
                        *b
                    } else {
                        *a
                    };
                    match maybe_acc {
                        Some(acc) => Some(PointOp::Bin {
                            kind: BinKind::Add,
                            a: map_operand(term, &remap),
                            b: acc,
                        }),
                        None => {
                            // The term itself becomes the accumulator.
                            acc_val[j] = Some(map_operand(term, &remap));
                            None
                        }
                    }
                }
                (
                    PointOp::Bin {
                        kind: BinKind::Sub,
                        a: _,
                        b,
                    },
                    Some(acc),
                ) => Some(PointOp::Bin {
                    kind: BinKind::Sub,
                    a: acc,
                    b: map_operand(*b, &remap),
                }),
                _ => unreachable!("spine links are additive"),
            };
            if let Some(e) = emitted {
                new_ops.push(e);
                acc_val[j] = Some(Operand::Tmp(new_ops.len() - 1));
            }
        }
        // Combine the accumulators.
        let mut combined = acc_val[0].expect("head initialized accumulator 0");
        for v in acc_val.iter().skip(1).flatten() {
            new_ops.push(PointOp::Bin {
                kind: BinKind::Add,
                a: combined,
                b: *v,
            });
            combined = Operand::Tmp(new_ops.len() - 1);
        }
        remap[*spine.last().expect("nonempty")] = Some(combined);
        // Re-emit the post-chain ops (closest to the spine first).
        for &i in post.iter().rev() {
            new_ops.push(map_op(&self.ops[i], &remap));
            remap[i] = Some(Operand::Tmp(new_ops.len() - 1));
        }
        let result = remap[result_tmp].expect("result emitted");
        Stencil {
            ops: new_ops,
            result,
            ..self.clone()
        }
        .sealed()
    }

    /// Number of live temporaries needed when evaluating ops in order
    /// (an upper bound on FP temporary registers for code generation).
    pub fn max_live_tmps(&self) -> usize {
        // Last use of each tmp.
        let mut last_use = vec![0usize; self.ops.len()];
        let mark = |op: Operand, at: usize, last_use: &mut [usize]| {
            if let Operand::Tmp(i) = op {
                last_use[i] = last_use[i].max(at);
            }
        };
        for (i, op) in self.ops.iter().enumerate() {
            for operand in op.operands() {
                mark(operand, i, &mut last_use);
            }
        }
        mark(self.result, self.ops.len(), &mut last_use);
        let mut live = 0usize;
        let mut max_live = 0usize;
        for (i, _) in self.ops.iter().enumerate() {
            live += 1; // op i defines tmp i
            max_live = max_live.max(live);
            // Tmps whose last use is at i die now (but not tmp i itself
            // unless it is genuinely dead, which validation rejects).
            live -= (0..i + 1).filter(|&j| last_use[j] == i && j != i).count();
        }
        max_live
    }
}

impl fmt::Display for Stencil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.stats())
    }
}

/// Builder producing validated [`Stencil`]s.
///
/// # Examples
///
/// A 1D-ish 3-point average on a 2D grid:
///
/// ```
/// use saris_core::stencil::StencilBuilder;
/// use saris_core::geom::{Offset, Space};
///
/// # fn main() -> Result<(), saris_core::error::StencilError> {
/// let mut b = StencilBuilder::new("avg3", Space::Dim2);
/// let inp = b.input("inp");
/// b.output("out");
/// let third = b.coeff("third", 1.0 / 3.0);
/// let w = b.tap(inp, Offset::d2(-1, 0));
/// let c = b.tap(inp, Offset::CENTER);
/// let e = b.tap(inp, Offset::d2(1, 0));
/// let s1 = b.add(w, c);
/// let s2 = b.add(s1, e);
/// let r = b.mul(third, s2);
/// b.store(r);
/// let stencil = b.finish()?;
/// assert_eq!(stencil.stats().flops, 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StencilBuilder {
    name: String,
    space: Space,
    arrays: Vec<ArrayDecl>,
    taps: Vec<Tap>,
    coeffs: Vec<Coeff>,
    ops: Vec<PointOp>,
    result: Option<Operand>,
    output: Option<ArrayId>,
}

impl StencilBuilder {
    /// Starts a new stencil.
    pub fn new(name: impl Into<String>, space: Space) -> StencilBuilder {
        StencilBuilder {
            name: name.into(),
            space,
            arrays: Vec::new(),
            taps: Vec::new(),
            coeffs: Vec::new(),
            ops: Vec::new(),
            result: None,
            output: None,
        }
    }

    /// Declares an input array.
    pub fn input(&mut self, name: impl Into<String>) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            role: ArrayRole::Input,
        });
        ArrayId(self.arrays.len() - 1)
    }

    /// Declares the output array.
    pub fn output(&mut self, name: impl Into<String>) -> ArrayId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            role: ArrayRole::Output,
        });
        let id = ArrayId(self.arrays.len() - 1);
        self.output = Some(id);
        id
    }

    /// Declares a coefficient.
    pub fn coeff(&mut self, name: impl Into<String>, value: f64) -> Operand {
        self.coeffs.push(Coeff {
            name: name.into(),
            value,
        });
        Operand::Coeff(self.coeffs.len() - 1)
    }

    /// Declares a grid load at `offset` from the update point.
    pub fn tap(&mut self, array: ArrayId, offset: Offset) -> Operand {
        self.taps.push(Tap { array, offset });
        Operand::Tap(self.taps.len() - 1)
    }

    fn bin(&mut self, kind: BinKind, a: Operand, b: Operand) -> Operand {
        self.ops.push(PointOp::Bin { kind, a, b });
        Operand::Tmp(self.ops.len() - 1)
    }

    /// Emits `a + b`.
    pub fn add(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Add, a, b)
    }

    /// Emits `a - b`.
    pub fn sub(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Sub, a, b)
    }

    /// Emits `a * b`.
    pub fn mul(&mut self, a: Operand, b: Operand) -> Operand {
        self.bin(BinKind::Mul, a, b)
    }

    /// Emits the fused `a * b + c`.
    pub fn fma(&mut self, a: Operand, b: Operand, c: Operand) -> Operand {
        self.ops.push(PointOp::Fma { a, b, c });
        Operand::Tmp(self.ops.len() - 1)
    }

    /// Sets the value stored to the output array at the update point.
    pub fn store(&mut self, value: Operand) {
        self.result = Some(value);
    }

    /// Validates and produces the stencil.
    ///
    /// # Errors
    ///
    /// Returns a [`StencilError`] if no output array or result is set, an
    /// operand index is invalid, a temporary is used before definition, a
    /// 2D stencil has `dz != 0` offsets, a tap/coefficient is unused, an
    /// operation never reaches the result, or no tap reads the grid.
    pub fn finish(self) -> Result<Stencil, StencilError> {
        let name = self.name.clone();
        let output = self
            .output
            .ok_or_else(|| StencilError::NoOutput { name: name.clone() })?;
        let result = self
            .result
            .ok_or_else(|| StencilError::NoResult { name: name.clone() })?;
        let stencil = Stencil {
            fingerprint: 0,
            name: self.name,
            space: self.space,
            arrays: self.arrays,
            taps: self.taps,
            coeffs: self.coeffs,
            ops: self.ops,
            result,
            output,
        };
        validate(&stencil)?;
        Ok(stencil.sealed())
    }
}

fn validate(s: &Stencil) -> Result<(), StencilError> {
    let name = s.name.clone();
    let mut tap_used = vec![false; s.taps.len()];
    let mut coeff_used = vec![false; s.coeffs.len()];
    let check = |op: Operand, at: usize| -> Result<(), StencilError> {
        match op {
            Operand::Tap(i) if i >= s.taps.len() => Err(StencilError::BadOperand {
                name: name.clone(),
                at,
            }),
            Operand::Coeff(i) if i >= s.coeffs.len() => Err(StencilError::BadOperand {
                name: name.clone(),
                at,
            }),
            Operand::Tmp(i) if i >= at => Err(StencilError::UseBeforeDef {
                name: name.clone(),
                at,
                tmp: i,
            }),
            _ => Ok(()),
        }
    };
    for (i, op) in s.ops.iter().enumerate() {
        for operand in op.operands() {
            check(operand, i)?;
            match operand {
                Operand::Tap(t) => tap_used[t] = true,
                Operand::Coeff(c) => coeff_used[c] = true,
                Operand::Tmp(_) => {}
            }
        }
    }
    check(s.result, s.ops.len())?;
    match s.result {
        Operand::Tap(t) => tap_used[t] = true,
        Operand::Coeff(c) => coeff_used[c] = true,
        Operand::Tmp(_) => {}
    }
    // Every op must reach the result: walk the uses back from it.
    let mut live = vec![false; s.ops.len()];
    if let Operand::Tmp(t) = s.result {
        live[t] = true;
    }
    for (i, op) in s.ops.iter().enumerate().rev() {
        if !live[i] {
            return Err(StencilError::DeadOp { name, at: i });
        }
        for operand in op.operands() {
            if let Operand::Tmp(t) = operand {
                live[t] = true;
            }
        }
    }
    if s.taps.is_empty() {
        return Err(StencilError::NoTap { name });
    }
    if let Some(i) = tap_used.iter().position(|u| !u) {
        return Err(StencilError::UnusedTap { name, at: i });
    }
    if let Some(i) = coeff_used.iter().position(|u| !u) {
        return Err(StencilError::UnusedCoeff { name, at: i });
    }
    if s.space == Space::Dim2 && s.taps.iter().any(|t| t.offset.dz != 0) {
        return Err(StencilError::OffsetOutsideSpace { name });
    }
    if s.arrays[s.output.0].role != ArrayRole::Output {
        return Err(StencilError::OutputRoleMismatch { name });
    }
    for tap in &s.taps {
        if s.arrays[tap.array.0].role != ArrayRole::Input {
            return Err(StencilError::TapOnOutput {
                name: s.name.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Stencil {
        let mut b = StencilBuilder::new("tiny", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let c = b.coeff("c", 0.5);
        let w = b.tap(inp, Offset::d2(-1, 0));
        let e = b.tap(inp, Offset::d2(1, 0));
        let s = b.add(w, e);
        let r = b.mul(c, s);
        b.store(r);
        b.finish().unwrap()
    }

    #[test]
    fn stats() {
        let s = tiny();
        let st = s.stats();
        assert_eq!(st.loads, 2);
        assert_eq!(st.coeffs, 1);
        assert_eq!(st.flops, 2);
        assert_eq!(st.radius, 1);
        assert_eq!(st.space, Space::Dim2);
        assert_eq!(
            s.halo(),
            Halo {
                rx: 1,
                ry: 0,
                rz: 0
            }
        );
    }

    #[test]
    fn eval_point_semantics() {
        let s = tiny();
        let e = Extent::new_2d(4, 4);
        let g = Grid::from_fn(e, |p| p.x as f64);
        let out = Grid::zeros(e);
        let arrays: Vec<&Grid> = vec![&g, &out];
        let v = s.eval_point(&arrays, Point::new_2d(1, 1));
        assert_eq!(v, 0.5 * (0.0 + 2.0));
    }

    #[test]
    fn fma_semantics() {
        let mut b = StencilBuilder::new("f", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let c = b.coeff("c", 3.0);
        let t = b.tap(inp, Offset::CENTER);
        let one = b.coeff("one", 1.0);
        let r = b.fma(c, t, one);
        b.store(r);
        let s = b.finish().unwrap();
        let e = Extent::new_2d(2, 2);
        let g = Grid::filled(e, 2.0);
        let out = Grid::zeros(e);
        assert_eq!(s.eval_point(&[&g, &out], Point::new_2d(0, 0)), 7.0);
        assert_eq!(s.stats().flops, 2);
    }

    #[test]
    fn unused_tap_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let _unused = b.tap(inp, Offset::CENTER);
        let c = b.coeff("c", 1.0);
        let t = b.tap(inp, Offset::d2(1, 0));
        let r = b.mul(c, t);
        b.store(r);
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::UnusedTap { at: 0, .. }
        ));
    }

    #[test]
    fn unused_coeff_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let _c = b.coeff("c", 1.0);
        let t = b.tap(inp, Offset::CENTER);
        let t2 = b.tap(inp, Offset::d2(1, 0));
        let r = b.add(t, t2);
        b.store(r);
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::UnusedCoeff { at: 0, .. }
        ));
    }

    #[test]
    fn missing_output_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let inp = b.input("inp");
        let t = b.tap(inp, Offset::CENTER);
        b.store(t);
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::NoOutput { .. }
        ));
    }

    #[test]
    fn missing_result_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let _ = b.input("inp");
        b.output("out");
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::NoResult { .. }
        ));
    }

    #[test]
    fn z_offset_in_2d_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let t = b.tap(inp, Offset::d3(0, 0, 1));
        b.store(t);
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::OffsetOutsideSpace { .. }
        ));
    }

    #[test]
    fn tap_on_output_rejected() {
        let mut b = StencilBuilder::new("bad", Space::Dim2);
        let out = b.output("out");
        let t = b.tap(out, Offset::CENTER);
        b.store(t);
        assert!(matches!(
            b.finish().unwrap_err(),
            StencilError::TapOnOutput { .. }
        ));
    }

    #[test]
    fn max_live_tmps_linear_chain() {
        // add chains keep at most 2 temporaries alive.
        let mut b = StencilBuilder::new("chain", Space::Dim2);
        let inp = b.input("inp");
        b.output("out");
        let t0 = b.tap(inp, Offset::CENTER);
        let t1 = b.tap(inp, Offset::d2(1, 0));
        let mut acc = b.add(t0, t1);
        for i in 2..6 {
            let t = b.tap(inp, Offset::d2(i, 0));
            acc = b.add(acc, t);
        }
        b.store(acc);
        let s = b.finish().unwrap();
        assert!(s.max_live_tmps() <= 2, "live = {}", s.max_live_tmps());
    }

    #[test]
    fn display_and_interior() {
        let s = tiny();
        assert!(s.to_string().contains("tiny"));
        let tile = Extent::new_2d(64, 64);
        assert_eq!(s.interior(tile), Extent::new_2d(62, 64));
    }
}

#[cfg(test)]
mod reassoc_tests {
    use super::*;
    use crate::gallery;
    use crate::geom::Extent;
    use crate::grid::Grid;
    use crate::reference;

    fn max_diff(original: &Stencil, transformed: &Stencil) -> f64 {
        let tile = Extent::cube(original.space(), 2 * original.stats().radius as usize + 6);
        let inputs: Vec<Grid> = original
            .input_arrays()
            .enumerate()
            .map(|(i, _)| Grid::pseudo_random(tile, 77 + i as u64))
            .collect();
        let refs: Vec<&Grid> = inputs.iter().collect();
        let a = reference::apply_to_new(original, &refs, tile);
        let b = reference::apply_to_new(transformed, &refs, tile);
        a.max_abs_diff(&b)
    }

    #[test]
    fn reassociation_preserves_values_within_fp_tolerance() {
        for s in gallery::all() {
            for acc in [2, 3, 4] {
                let t = s.reassociated(acc);
                let diff = max_diff(&s, &t);
                assert!(diff < 1e-12, "{} acc={acc}: diff {diff:e}", s.name());
            }
        }
    }

    #[test]
    fn reassociation_preserves_stats() {
        // Loads and coefficients are untouched; FLOPs may change by at
        // most accumulators-1 combine adds (minus saved init ops).
        for s in gallery::all() {
            let t = s.reassociated(2);
            assert_eq!(t.stats().loads, s.stats().loads, "{}", s.name());
            assert_eq!(t.stats().coeffs, s.stats().coeffs, "{}", s.name());
            let dflops = t.stats().flops as i64 - s.stats().flops as i64;
            assert!(dflops.abs() <= 2, "{}: flop delta {dflops}", s.name());
        }
    }

    #[test]
    fn reassociation_shortens_dependency_chains() {
        // Longest tmp-to-tmp dependency chain must shrink for the
        // fma-chain codes.
        fn chain_depth(s: &Stencil) -> usize {
            let mut depth = vec![0usize; s.ops().len()];
            for (i, op) in s.ops().iter().enumerate() {
                let d = op
                    .operands()
                    .into_iter()
                    .filter_map(|o| match o {
                        Operand::Tmp(t) => Some(depth[t] + 1),
                        _ => None,
                    })
                    .max()
                    .unwrap_or(1);
                depth[i] = d;
            }
            depth.into_iter().max().unwrap_or(0)
        }
        let s = gallery::star2d3r();
        let t = s.reassociated(2);
        assert!(
            chain_depth(&t) < chain_depth(&s),
            "chain {} -> {}",
            chain_depth(&s),
            chain_depth(&t)
        );
        let t4 = s.reassociated(4);
        assert!(chain_depth(&t4) < chain_depth(&t));
    }

    #[test]
    fn one_accumulator_is_identity() {
        let s = gallery::j2d5pt();
        assert_eq!(s.reassociated(1), s);
        assert_eq!(s.reassociated(0), s);
    }

    #[test]
    fn reassociated_stencils_validate() {
        for s in gallery::all() {
            let t = s.reassociated(3);
            // Re-run the validation logic by round-tripping the op list.
            assert!(validate(&t).is_ok(), "{}", s.name());
        }
    }

    #[test]
    fn fingerprints_separate_the_gallery() {
        let prints: Vec<u64> = gallery::all().iter().map(Stencil::fingerprint).collect();
        for (i, a) in prints.iter().enumerate() {
            for b in &prints[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // Stable for clones, different after a structural change (the
        // 27-point chain is deep enough that reassociation rewrites it).
        let s = gallery::j3d27pt();
        assert_eq!(s.fingerprint(), s.clone().fingerprint());
        assert_ne!(s.fingerprint(), s.reassociated(3).fingerprint());
    }
}
