//! Lightweight dataflow analyses over the structured IR.
//!
//! The passes in `prism-core` only propagate information about registers that
//! are *single-assignment* and whose definition structurally dominates the
//! use. In a structured IR, a definition dominates a use when the definition
//! appears earlier in the same statement list or in an enclosing list — this
//! module computes the supporting facts (definition counts, use counts, and
//! whether a register is defined inside a loop or conditional).

use crate::hash::FxHashMap;
use crate::shader::Shader;
use crate::stmt::Stmt;
use crate::value::{Operand, Reg};

/// Per-register facts used to decide which optimizations are safe.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegFacts {
    /// Number of `Def` statements targeting the register.
    pub def_count: usize,
    /// Number of operand uses of the register.
    pub use_count: usize,
    /// `true` if at least one definition is nested inside a loop body.
    pub defined_in_loop: bool,
    /// `true` if at least one definition is nested inside an `if` branch.
    pub defined_in_branch: bool,
}

impl RegFacts {
    /// A register is in SSA-like form when it has exactly one definition and
    /// that definition is not nested inside a loop or conditional.
    pub fn is_ssa(&self) -> bool {
        self.def_count == 1 && !self.defined_in_loop && !self.defined_in_branch
    }
}

/// Dataflow facts for a whole shader: one dense entry per register, indexed
/// by register number.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    facts: Vec<RegFacts>,
}

impl Analysis {
    /// Computes definition/use facts for every register in the shader.
    ///
    /// The table is sized from the shader's register table. A register
    /// outside it (malformed IR, which the verifier reports) grows the table
    /// instead of panicking.
    pub fn of(shader: &Shader) -> Analysis {
        let mut a = Analysis {
            facts: vec![RegFacts::default(); shader.regs.len()],
        };
        a.scan(&shader.body, false, false);
        a
    }

    fn entry(&mut self, reg: Reg) -> &mut RegFacts {
        let index = reg.0 as usize;
        if index >= self.facts.len() {
            self.facts.resize(index + 1, RegFacts::default());
        }
        &mut self.facts[index]
    }

    fn scan(&mut self, body: &[Stmt], in_loop: bool, in_branch: bool) {
        for stmt in body {
            for operand in stmt.operands() {
                if let Operand::Reg(r) = operand {
                    self.entry(*r).use_count += 1;
                }
            }
            match stmt {
                Stmt::Def { dst, .. } => {
                    let f = self.entry(*dst);
                    f.def_count += 1;
                    f.defined_in_loop |= in_loop;
                    f.defined_in_branch |= in_branch;
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.scan(then_body, in_loop, true);
                    self.scan(else_body, in_loop, true);
                }
                Stmt::Loop { var, body, .. } => {
                    // The induction variable counts as defined in the loop.
                    let f = self.entry(*var);
                    f.def_count += 1;
                    f.defined_in_loop = true;
                    self.scan(body, true, in_branch);
                }
                _ => {}
            }
        }
    }

    /// Facts for one register (default-empty if never seen).
    pub fn facts(&self, reg: Reg) -> RegFacts {
        self.facts.get(reg.0 as usize).copied().unwrap_or_default()
    }

    /// `true` if the register has exactly one top-level definition (see
    /// [`RegFacts::is_ssa`]).
    pub fn is_ssa(&self, reg: Reg) -> bool {
        self.facts(reg).is_ssa()
    }

    /// `true` if the register is never used as an operand.
    pub fn is_unused(&self, reg: Reg) -> bool {
        self.facts(reg).use_count == 0
    }

    /// Number of uses of the register.
    pub fn use_count(&self, reg: Reg) -> usize {
        self.facts(reg).use_count
    }
}

/// Live range of one register in the linearised statement order: the
/// position of its first definition and the position of its last use (a
/// register that is never used dies at its definition). Positions are
/// pre-order statement indices; every statement — including the ones nested
/// in `if` and loop bodies — occupies one position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveRange {
    /// Linear position of the first definition.
    pub start: usize,
    /// Linear position of the last use (≥ `start`).
    pub end: usize,
    /// Lane count of the register's type (a `vec3` holds 3 lanes); the unit
    /// of the pressure estimate below.
    pub lanes: usize,
}

/// Live-range analysis over the structured IR: per-register intervals in a
/// linearised statement order plus the peak number of simultaneously live
/// registers and lanes — the static register-pressure estimate the
/// per-platform cost models consume.
///
/// Loops are handled conservatively: any register defined or used inside a
/// loop body is extended to the loop's last statement, because its value can
/// be carried across the back edge (accumulators) or is needed on every
/// iteration (loop-invariant operands). This over-approximates pressure,
/// never under-approximates it, which is the safe direction for an estimate
/// that feeds occupancy penalties.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    ranges: FxHashMap<Reg, LiveRange>,
    peak_regs: usize,
    peak_lanes: usize,
}

impl Liveness {
    /// Computes live ranges and peak pressure for every register.
    pub fn of(shader: &Shader) -> Liveness {
        let mut lv = Liveness::default();
        let mut pos = 0usize;
        lv.scan(shader, &shader.body, &mut pos);
        lv.sweep();
        lv
    }

    fn scan(&mut self, shader: &Shader, body: &[Stmt], pos: &mut usize) {
        for stmt in body {
            let here = *pos;
            *pos += 1;
            for operand in stmt.operands() {
                if let Operand::Reg(r) = operand {
                    self.touch_use(shader, *r, here);
                }
            }
            match stmt {
                Stmt::Def { dst, .. } => self.touch_def(shader, *dst, here),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.scan(shader, then_body, pos);
                    self.scan(shader, else_body, pos);
                }
                Stmt::Loop { var, body, .. } => {
                    self.touch_def(shader, *var, here);
                    let body_start = *pos;
                    self.scan(shader, body, pos);
                    let loop_end = pos.saturating_sub(1).max(here);
                    // Everything touched inside the loop (and the induction
                    // variable) lives until the loop's last statement.
                    for range in self.ranges.values_mut() {
                        if range.end >= body_start || range.start == here {
                            range.end = range.end.max(loop_end);
                        }
                    }
                    if let Some(range) = self.ranges.get_mut(var) {
                        range.end = range.end.max(loop_end);
                    }
                }
                _ => {}
            }
        }
    }

    fn touch_def(&mut self, shader: &Shader, reg: Reg, pos: usize) {
        let lanes = shader.reg_ty(reg).width as usize;
        self.ranges
            .entry(reg)
            .and_modify(|r| r.end = r.end.max(pos))
            .or_insert(LiveRange {
                start: pos,
                end: pos,
                lanes,
            });
    }

    fn touch_use(&mut self, shader: &Shader, reg: Reg, pos: usize) {
        // A use before any recorded def (verifier-rejected IR, or a
        // conservative caller) still gets an interval so pressure never
        // undercounts.
        self.touch_def(shader, reg, pos);
    }

    /// Computes the peak overlap once every interval is final.
    fn sweep(&mut self) {
        let mut events: Vec<(usize, isize, isize)> = Vec::with_capacity(self.ranges.len() * 2);
        for range in self.ranges.values() {
            events.push((range.start, 1, range.lanes as isize));
            events.push((range.end + 1, -1, -(range.lanes as isize)));
        }
        // Ends sort before starts at the same position via the signed delta:
        // a register dying at position p is not live simultaneously with one
        // born at p + 1, but two ranges meeting *at* p do overlap there.
        events.sort_unstable();
        let (mut regs, mut lanes) = (0isize, 0isize);
        for (_, dr, dl) in events {
            regs += dr;
            lanes += dl;
            self.peak_regs = self.peak_regs.max(regs as usize);
            self.peak_lanes = self.peak_lanes.max(lanes as usize);
        }
    }

    /// The live range of one register, if it appears in the shader at all.
    pub fn range(&self, reg: Reg) -> Option<LiveRange> {
        self.ranges.get(&reg).copied()
    }

    /// Peak number of simultaneously live registers.
    pub fn peak_regs(&self) -> usize {
        self.peak_regs
    }

    /// Peak number of simultaneously live *lanes* (width-weighted registers):
    /// the scalar-register pressure on a scalar-ALU architecture.
    pub fn peak_lanes(&self) -> usize {
        self.peak_lanes
    }

    /// Number of distinct registers that are live anywhere.
    pub fn live_regs(&self) -> usize {
        self.ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::types::IrType;
    use crate::value::Operand;

    fn def(dst: Reg, op: Op) -> Stmt {
        Stmt::Def { dst, op }
    }

    #[test]
    fn counts_defs_and_uses() {
        let mut s = Shader::new("a");
        let r0 = s.new_reg(IrType::F32);
        let r1 = s.new_reg(IrType::F32);
        s.body = vec![
            def(r0, Op::Mov(Operand::float(1.0))),
            def(r1, Op::Mov(Operand::Reg(r0))),
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r1),
            },
        ];
        let a = Analysis::of(&s);
        assert!(a.is_ssa(r0));
        assert!(a.is_ssa(r1));
        assert_eq!(a.use_count(r0), 1);
        assert_eq!(a.use_count(r1), 1);
        assert!(!a.is_unused(r0));
    }

    #[test]
    fn register_defined_in_branch_is_not_ssa() {
        let mut s = Shader::new("b");
        let r0 = s.new_reg(IrType::F32);
        s.body = vec![Stmt::If {
            cond: Operand::boolean(true),
            then_body: vec![def(r0, Op::Mov(Operand::float(1.0)))],
            else_body: vec![def(r0, Op::Mov(Operand::float(2.0)))],
        }];
        let a = Analysis::of(&s);
        assert!(!a.is_ssa(r0));
        assert_eq!(a.facts(r0).def_count, 2);
        assert!(a.facts(r0).defined_in_branch);
    }

    #[test]
    fn loop_induction_variable_is_loop_defined() {
        let mut s = Shader::new("c");
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        s.body = vec![
            def(acc, Op::Mov(Operand::float(0.0))),
            Stmt::Loop {
                var: i,
                start: 0,
                end: 9,
                step: 1,
                body: vec![def(acc, Op::Mov(Operand::Reg(i)))],
            },
        ];
        let a = Analysis::of(&s);
        assert!(a.facts(i).defined_in_loop);
        assert!(!a.is_ssa(acc));
        assert_eq!(a.facts(acc).def_count, 2);
    }

    #[test]
    fn registers_outside_the_table_read_default_and_grow_it() {
        let mut s = Shader::new("oob");
        let r = s.new_reg(IrType::F32);
        let stray = Reg(7);
        s.body = vec![
            def(r, Op::Mov(Operand::Reg(stray))),
            def(stray, Op::Mov(Operand::Reg(r))),
        ];
        let a = Analysis::of(&s);
        assert_eq!(a.use_count(stray), 1);
        assert_eq!(a.facts(stray).def_count, 1);
        assert!(a.is_unused(Reg(1_000)));
        assert!(!a.is_ssa(Reg(1_000)));
    }

    #[test]
    fn unused_register_detected() {
        let mut s = Shader::new("d");
        let r = s.new_reg(IrType::F32);
        s.body = vec![def(r, Op::Mov(Operand::float(1.0)))];
        let a = Analysis::of(&s);
        assert!(a.is_unused(r));
    }

    #[test]
    fn liveness_tracks_ranges_and_peak_pressure() {
        // r0 (vec4) lives across r1's definition, so the peak is
        // 2 registers / 5 lanes; r1 (scalar) dies feeding the store.
        let mut s = Shader::new("lv");
        let r0 = s.new_reg(IrType::fvec(4));
        let r1 = s.new_reg(IrType::F32);
        s.body = vec![
            def(
                r0,
                Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            ),
            def(
                r1,
                Op::Extract {
                    vector: Operand::Reg(r0),
                    index: 0,
                },
            ),
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![0]),
                value: Operand::Reg(r1),
            },
        ];
        let lv = Liveness::of(&s);
        assert_eq!(
            lv.range(r0),
            Some(LiveRange {
                start: 0,
                end: 1,
                lanes: 4
            })
        );
        assert_eq!(
            lv.range(r1),
            Some(LiveRange {
                start: 1,
                end: 2,
                lanes: 1
            })
        );
        assert_eq!(lv.peak_regs(), 2);
        assert_eq!(lv.peak_lanes(), 5);
        assert_eq!(lv.live_regs(), 2);
    }

    #[test]
    fn liveness_extends_loop_carried_registers_to_the_loop_end() {
        // The accumulator is written before the loop and updated inside it:
        // it must stay live through the loop's last statement, overlapping
        // the scratch register defined in the body.
        let mut s = Shader::new("lv-loop");
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let scratch = s.new_reg(IrType::F32);
        s.body = vec![
            def(acc, Op::Mov(Operand::float(0.0))),
            Stmt::Loop {
                var: i,
                start: 0,
                end: 4,
                step: 1,
                body: vec![
                    def(
                        scratch,
                        Op::Convert {
                            to: IrType::F32,
                            value: Operand::Reg(i),
                        },
                    ),
                    def(
                        acc,
                        Op::Binary(
                            crate::op::BinaryOp::Add,
                            Operand::Reg(acc),
                            Operand::Reg(scratch),
                        ),
                    ),
                ],
            },
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![0]),
                value: Operand::Reg(acc),
            },
        ];
        let lv = Liveness::of(&s);
        let acc_range = lv.range(acc).unwrap();
        assert_eq!(acc_range.start, 0);
        assert_eq!(acc_range.end, 4, "accumulator must live past the loop");
        let scratch_range = lv.range(scratch).unwrap();
        assert_eq!(
            scratch_range.end, 3,
            "loop-body scratch lives to the loop's last statement"
        );
        // i + acc + scratch all overlap inside the body.
        assert_eq!(lv.peak_regs(), 3);
    }
}
