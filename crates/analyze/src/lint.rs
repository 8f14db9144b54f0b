//! Rule-based IR diagnostics with stable ids.
//!
//! Each rule has a stable machine id (the `ids` module) so downstream
//! tooling can filter on them, a severity, and a human-readable message.
//! Lints are platform-independent: they describe properties of the IR, not
//! of any device, so one lint pass per fingerprint serves every personality.

use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};

/// Stable lint-rule identifiers.
pub mod ids {
    /// An expression computed entirely from constants and uniforms — an
    /// ahead-of-time (AZP-style) specialization site: pinning the uniforms
    /// folds it away.
    pub const UNIFORM_FOLDABLE_EXPR: &str = "uniform-foldable-expr";
    /// A declared output that is never stored to.
    pub const DEAD_OUTPUT: &str = "dead-output";
    /// A declared uniform that no operand reads.
    pub const UNUSED_UNIFORM: &str = "unused-uniform";
    /// A declared sampler that no texture op samples.
    pub const UNUSED_SAMPLER: &str = "unused-sampler";
    /// A conditional whose predicate depends only on uniforms — every
    /// fragment takes the same side, so specialization removes the branch.
    pub const UNIFORM_BRANCH: &str = "uniform-branch";
    /// A loop-body definition whose operands are all loop-invariant: the
    /// hoisting pass missed it (or was not scheduled).
    pub const LOOP_INVARIANT_MISSED: &str = "loop-invariant-missed";
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: an opportunity, not a defect.
    Info,
    /// A likely inefficiency or interface mistake.
    Warning,
}

impl Severity {
    /// The stable wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
        }
    }

    /// Parses the wire spelling back.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown spelling.
    pub fn parse(text: &str) -> Result<Severity, String> {
        match text {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            other => Err(format!("unknown lint severity {other:?}")),
        }
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Severity {
    fn from_value(value: &Value) -> Result<Severity, String> {
        match value {
            Value::Str(s) => Severity::parse(s),
            other => Err(format!("expected severity string, got {other:?}")),
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Lint {
    /// Stable rule id (one of [`ids`]).
    pub id: String,
    /// Diagnostic severity.
    pub severity: Severity,
    /// Human-readable description naming the offending element.
    pub message: String,
}

serde::impl_serde_struct!(Lint {
    id,
    severity,
    message
});

impl Lint {
    fn new(id: &str, severity: Severity, message: String) -> Lint {
        Lint {
            id: id.to_string(),
            severity,
            message,
        }
    }
}

/// Runs every lint rule over one shader, returning diagnostics in a stable
/// order (interface rules first, then body rules in source order).
pub fn lint(shader: &Shader) -> Vec<Lint> {
    let mut lints = Vec::new();
    lint_interface(shader, &mut lints);
    let analysis = Analysis::of(shader);
    let mut ctx = BodyCtx {
        shader,
        analysis: &analysis,
        // A register is "uniform-foldable" once every transitive input is a
        // constant or uniform; the flag records whether a uniform actually
        // participates (pure-constant residue is the folding pass's job, not
        // a specialization site).
        foldable: HashMap::new(),
        lints: &mut lints,
    };
    lint_body(&mut ctx, &shader.body, None);
    lints
}

fn lint_interface(shader: &Shader, lints: &mut Vec<Lint>) {
    let mut stored: HashSet<usize> = HashSet::new();
    let mut uniforms_read: HashSet<usize> = HashSet::new();
    let mut samplers_read: HashSet<usize> = HashSet::new();
    collect_interface_uses(
        &shader.body,
        &mut stored,
        &mut uniforms_read,
        &mut samplers_read,
    );
    for (i, output) in shader.outputs.iter().enumerate() {
        if !stored.contains(&i) {
            lints.push(Lint::new(
                ids::DEAD_OUTPUT,
                Severity::Warning,
                format!("output '{}' is declared but never stored to", output.name),
            ));
        }
    }
    for (i, uniform) in shader.uniforms.iter().enumerate() {
        if !uniforms_read.contains(&i) {
            lints.push(Lint::new(
                ids::UNUSED_UNIFORM,
                Severity::Warning,
                format!("uniform '{}' is declared but never read", uniform.name),
            ));
        }
    }
    for (i, sampler) in shader.samplers.iter().enumerate() {
        if !samplers_read.contains(&i) {
            lints.push(Lint::new(
                ids::UNUSED_SAMPLER,
                Severity::Warning,
                format!("sampler '{}' is declared but never sampled", sampler.name),
            ));
        }
    }
}

fn collect_interface_uses(
    body: &[Stmt],
    stored: &mut HashSet<usize>,
    uniforms: &mut HashSet<usize>,
    samplers: &mut HashSet<usize>,
) {
    for stmt in body {
        for operand in stmt.operands() {
            if let Operand::Uniform(u) = operand {
                uniforms.insert(*u);
            }
        }
        match stmt {
            Stmt::StoreOutput { output, .. } => {
                stored.insert(*output);
            }
            Stmt::Def {
                op: Op::TextureSample { sampler, .. },
                ..
            } => {
                samplers.insert(*sampler);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_interface_uses(then_body, stored, uniforms, samplers);
                collect_interface_uses(else_body, stored, uniforms, samplers);
            }
            Stmt::Loop { body, .. } => {
                collect_interface_uses(body, stored, uniforms, samplers);
            }
            _ => {}
        }
    }
}

struct BodyCtx<'a> {
    shader: &'a Shader,
    analysis: &'a Analysis,
    foldable: HashMap<Reg, bool>,
    lints: &'a mut Vec<Lint>,
}

/// `loop_defs` is the set of registers (re)defined anywhere inside the
/// innermost enclosing loop, including its induction variable — `None`
/// outside any loop.
fn lint_body(ctx: &mut BodyCtx<'_>, body: &[Stmt], loop_defs: Option<&HashSet<Reg>>) {
    for stmt in body {
        match stmt {
            Stmt::Def { dst, op } => {
                lint_def(ctx, *dst, op, loop_defs);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if let Some(true) = foldability(ctx, cond) {
                    ctx.lints.push(Lint::new(
                        ids::UNIFORM_BRANCH,
                        Severity::Info,
                        format!(
                            "branch condition {} depends only on uniforms; \
                             specialization removes the branch",
                            cond.key()
                        ),
                    ));
                }
                lint_body(ctx, then_body, loop_defs);
                lint_body(ctx, else_body, loop_defs);
            }
            Stmt::Loop { var, body, .. } => {
                let mut defs = HashSet::new();
                defs.insert(*var);
                collect_defs(body, &mut defs);
                lint_body(ctx, body, Some(&defs));
            }
            _ => {}
        }
    }
}

fn lint_def(ctx: &mut BodyCtx<'_>, dst: Reg, op: &Op, loop_defs: Option<&HashSet<Reg>>) {
    if !matches!(op, Op::TextureSample { .. }) {
        let mut uses_uniform = false;
        let folds = op
            .operands()
            .all(|operand| match foldability(ctx, operand) {
                Some(u) => {
                    uses_uniform |= u;
                    true
                }
                None => false,
            });
        if folds {
            ctx.foldable.insert(dst, uses_uniform);
            // Only substantive computation is worth a diagnostic — moves and
            // shuffles of uniform data are packing, not specialization sites.
            let substantive = matches!(
                op,
                Op::Binary(..)
                    | Op::Unary(..)
                    | Op::Intrinsic(..)
                    | Op::Select { .. }
                    | Op::Convert { .. }
            );
            if uses_uniform && substantive && ctx.analysis.is_ssa(dst) {
                ctx.lints.push(Lint::new(
                    ids::UNIFORM_FOLDABLE_EXPR,
                    Severity::Info,
                    format!(
                        "r{} is computed entirely from uniforms and constants; \
                         a specialized variant folds it ahead of time",
                        dst.0
                    ),
                ));
            }
        }
    }
    if let Some(defs) = loop_defs {
        let invariant = !matches!(op, Op::TextureSample { .. })
            && op.operands().all(|operand| match operand {
                Operand::Reg(r) => !defs.contains(r),
                _ => true,
            });
        if invariant && ctx.analysis.facts(dst).def_count == 1 {
            ctx.lints.push(Lint::new(
                ids::LOOP_INVARIANT_MISSED,
                Severity::Warning,
                format!(
                    "r{} is recomputed every iteration from loop-invariant \
                     operands; hoist it out of the loop",
                    dst.0
                ),
            ));
        }
    }
    let _ = ctx.shader;
}

/// `Some(uses_uniform)` when the operand folds at specialization time,
/// `None` when it depends on per-fragment data.
fn foldability(ctx: &BodyCtx<'_>, operand: &Operand) -> Option<bool> {
    match operand {
        Operand::Const(_) => Some(false),
        Operand::Uniform(_) => Some(true),
        Operand::Input(_) => None,
        Operand::Reg(r) => ctx.foldable.get(r).copied(),
    }
}

fn collect_defs(body: &[Stmt], defs: &mut HashSet<Reg>) {
    for stmt in body {
        match stmt {
            Stmt::Def { dst, .. } => {
                defs.insert(*dst);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_defs(then_body, defs);
                collect_defs(else_body, defs);
            }
            Stmt::Loop { var, body, .. } => {
                defs.insert(*var);
                collect_defs(body, defs);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_of(lints: &[Lint]) -> Vec<&str> {
        lints.iter().map(|l| l.id.as_str()).collect()
    }

    #[test]
    fn dead_interface_elements_are_reported() {
        let mut s = Shader::new("dead-iface");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.outputs.push(OutputVar {
            name: "ghost".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "never".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        s.samplers.push(SamplerVar {
            name: "noise".into(),
            dim: TextureDim::Dim2D,
        });
        s.body = vec![Stmt::StoreOutput {
            output: 0,
            components: None,
            value: Operand::fvec(vec![0.0; 4]),
        }];
        let lints = lint(&s);
        let found = ids_of(&lints);
        assert!(found.contains(&ids::DEAD_OUTPUT));
        assert!(found.contains(&ids::UNUSED_UNIFORM));
        assert!(found.contains(&ids::UNUSED_SAMPLER));
        assert!(lints
            .iter()
            .any(|l| l.id == ids::DEAD_OUTPUT && l.message.contains("ghost")));
        assert!(lints.iter().all(|l| l.severity == Severity::Warning));
    }

    #[test]
    fn uniform_only_expressions_and_branches_are_specialization_sites() {
        let mut s = Shader::new("azp-sites");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        s.uniforms.push(UniformVar {
            name: "gain".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let scaled = s.new_reg(IrType::F32);
        let cond = s.new_reg(IrType::BOOL);
        let mixed = s.new_reg(IrType::fvec(2));
        s.body = vec![
            // gain * 2.0 — foldable, involves a uniform.
            Stmt::Def {
                dst: scaled,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(2.0)),
            },
            // scaled > 1.0 — still uniform-only, and then branched on.
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Gt, Operand::Reg(scaled), Operand::float(1.0)),
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::StoreOutput {
                    output: 0,
                    components: None,
                    value: Operand::fvec(vec![1.0; 4]),
                }],
                else_body: vec![Stmt::StoreOutput {
                    output: 0,
                    components: None,
                    value: Operand::fvec(vec![0.0; 4]),
                }],
            },
            // uv * scaled — depends on an input, must NOT be flagged.
            Stmt::Def {
                dst: mixed,
                op: Op::Binary(BinaryOp::Mul, Operand::Input(0), Operand::Reg(scaled)),
            },
        ];
        let lints = lint(&s);
        let foldable = lints
            .iter()
            .filter(|l| l.id == ids::UNIFORM_FOLDABLE_EXPR)
            .count();
        assert_eq!(foldable, 2, "{lints:?}");
        assert!(ids_of(&lints).contains(&ids::UNIFORM_BRANCH));
        assert!(!lints
            .iter()
            .any(|l| l.message.contains(&format!("r{}", mixed.0))));
    }

    #[test]
    fn pure_constant_expressions_are_not_specialization_sites() {
        let mut s = Shader::new("const-only");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::F32,
        });
        let r = s.new_reg(IrType::F32);
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Binary(BinaryOp::Add, Operand::float(1.0), Operand::float(2.0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(!ids_of(&lint(&s)).contains(&ids::UNIFORM_FOLDABLE_EXPR));
    }

    #[test]
    fn loop_invariant_defs_inside_loops_are_flagged() {
        let mut s = Shader::new("licm-miss");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.inputs.push(InputVar {
            name: "uv".into(),
            ty: IrType::fvec(2),
        });
        let i = s.new_reg(IrType::I32);
        let inv = s.new_reg(IrType::fvec(2));
        let acc = s.new_reg(IrType::fvec(2));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Splat {
                    ty: IrType::fvec(2),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 4,
                step: 1,
                body: vec![
                    // uv * 2 does not involve i or acc: hoistable.
                    Stmt::Def {
                        dst: inv,
                        op: Op::Binary(
                            BinaryOp::Mul,
                            Operand::Input(0),
                            Operand::fvec(vec![2.0, 2.0]),
                        ),
                    },
                    // acc += inv is loop-carried: not hoistable.
                    Stmt::Def {
                        dst: acc,
                        op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Reg(inv)),
                    },
                ],
            },
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![0, 1]),
                value: Operand::Reg(acc),
            },
        ];
        let lints = lint(&s);
        let flagged: Vec<_> = lints
            .iter()
            .filter(|l| l.id == ids::LOOP_INVARIANT_MISSED)
            .collect();
        assert_eq!(flagged.len(), 1, "{lints:?}");
        assert!(flagged[0].message.contains(&format!("r{}", inv.0)));
    }

    #[test]
    fn severity_round_trips_through_json() {
        let l = Lint::new(ids::DEAD_OUTPUT, Severity::Warning, "x".into());
        let json = serde_json::to_string(&l).unwrap();
        assert!(json.contains("\"warning\""));
        let back: Lint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
