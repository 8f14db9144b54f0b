//! Aggressive dead code elimination (the ADCE flag).
//!
//! A mark-and-sweep over the whole body: everything reachable from the
//! shader's observable effects (output stores, discards, control-flow
//! conditions and loop bounds) is marked live, and unmarked pure definitions
//! are deleted.
//!
//! Because the always-on trivially-dead-code cleanup (see [`super::dce`])
//! already runs for every flag combination, ADCE finds nothing extra on real
//! shaders — reproducing the paper's observation that the ADCE flag never
//! changes the output code (§VI-D1, Fig. 8h).

use prism_ir::hash::{FxHashMap, FxHashSet};
use prism_ir::prelude::*;

/// The aggressive dead-code elimination pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Adce;

impl Adce {
    /// Runs the pass, returning `true` if the shader was modified.
    pub fn run(&self, shader: &mut Shader) -> bool {
        // Map every register to the set of registers its definitions read,
        // treating all definitions of a (mutable) register as one node.
        let mut reads: FxHashMap<Reg, FxHashSet<Reg>> = FxHashMap::default();
        let mut roots: FxHashSet<Reg> = FxHashSet::default();
        collect(&shader.body, &mut reads, &mut roots);

        // Transitive closure from the roots.
        let mut live: FxHashSet<Reg> = FxHashSet::default();
        let mut work: Vec<Reg> = roots.into_iter().collect();
        while let Some(r) = work.pop() {
            if !live.insert(r) {
                continue;
            }
            if let Some(deps) = reads.get(&r) {
                work.extend(deps.iter().copied());
            }
        }

        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        sweep(&mut body, &live, &mut changed);
        shader.body = body;
        changed
    }
}

fn collect(body: &[Stmt], reads: &mut FxHashMap<Reg, FxHashSet<Reg>>, roots: &mut FxHashSet<Reg>) {
    for stmt in body {
        match stmt {
            Stmt::Def { dst, op } => {
                let entry = reads.entry(*dst).or_default();
                for o in op.operands() {
                    if let Operand::Reg(r) = o {
                        entry.insert(*r);
                    }
                }
            }
            Stmt::StoreOutput { value, .. } => {
                if let Operand::Reg(r) = value {
                    roots.insert(*r);
                }
            }
            Stmt::Discard { cond } => {
                if let Some(Operand::Reg(r)) = cond {
                    roots.insert(*r);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if let Operand::Reg(r) = cond {
                    roots.insert(*r);
                }
                collect(then_body, reads, roots);
                collect(else_body, reads, roots);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                collect(loop_body, reads, roots);
            }
        }
    }
}

fn sweep(body: &mut Vec<Stmt>, live: &FxHashSet<Reg>, changed: &mut bool) {
    let mut kept = Vec::with_capacity(body.len());
    for mut stmt in body.drain(..) {
        match &mut stmt {
            Stmt::Def { dst, op } if !live.contains(dst) && op.is_pure() => {
                *changed = true;
                continue;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                sweep(then_body, live, changed);
                sweep(else_body, live, changed);
                if then_body.is_empty() && else_body.is_empty() {
                    *changed = true;
                    continue;
                }
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                sweep(loop_body, live, changed);
                if loop_body.is_empty() {
                    *changed = true;
                    continue;
                }
            }
            _ => {}
        }
        kept.push(stmt);
    }
    *body = kept;
}

#[cfg(test)]
mod tests {
    use super::super::dce::Dce;
    use super::*;
    use prism_ir::verify::verify;

    #[test]
    fn removes_transitively_dead_chains() {
        let mut s = Shader::new("adce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let d0 = s.new_reg(IrType::F32);
        let d1 = s.new_reg(IrType::F32);
        let live = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: d0,
                op: Op::Mov(Operand::float(1.0)),
            },
            Stmt::Def {
                dst: d1,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(d0), Operand::float(1.0)),
            },
            Stmt::Def {
                dst: live,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(live),
            },
        ];
        assert!(Adce.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.body.len(), 2);
    }

    #[test]
    fn finds_nothing_after_trivial_dce_has_run() {
        // The paper's observation: after the always-on cleanup, ADCE is a no-op.
        let mut s = Shader::new("adce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let d0 = s.new_reg(IrType::F32);
        let d1 = s.new_reg(IrType::F32);
        let live = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: d0,
                op: Op::Mov(Operand::float(1.0)),
            },
            Stmt::Def {
                dst: d1,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(d0), Operand::float(1.0)),
            },
            Stmt::Def {
                dst: live,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(live),
            },
        ];
        Dce.run(&mut s);
        assert!(
            !Adce.run(&mut s),
            "ADCE should be a no-op after trivial DCE"
        );
    }

    #[test]
    fn keeps_values_feeding_discard_conditions() {
        let mut s = Shader::new("adce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let cond = s.new_reg(IrType::BOOL);
        s.body = vec![
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::Input(0), Operand::float(0.5)),
            },
            Stmt::Discard {
                cond: Some(Operand::Reg(cond)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::fvec(vec![1.0; 4]),
            },
        ];
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::F32,
        });
        assert!(!Adce.run(&mut s));
        assert_eq!(s.body.len(), 3);
    }
}
