//! # prism-ir — the shader intermediate representation
//!
//! A LunarGlass/LLVM-flavoured IR for fragment shaders, used by every other
//! crate in the prism workspace:
//!
//! * only scalars and 2–4 wide vectors exist (matrices are scalarised at
//!   lowering time and scalar×vector arithmetic is splatted — the paper's
//!   §III-C source-to-source artefacts),
//! * virtual registers with structured control flow (`if`, counted loops),
//! * a [`verify`](crate::verify::verify) pass run after every transformation,
//! * a reference [interpreter](crate::interp) used as the semantic oracle in
//!   the test suite,
//! * a structural, commutative-aware [fingerprint](mod@crate::fingerprint) used
//!   by the compile session for early variant deduplication,
//! * bit-exact [serialisation](crate::serde_impls) through the vendored
//!   `serde` data model, used by the warm-start cache persistence layer,
//! * allocation-free analysis kernels shared by every optimizer and driver
//!   pass: dense per-register [facts](crate::analysis::Analysis), structural
//!   [value-numbering keys](crate::value_key::ValueKey), borrowed
//!   [operand lists](crate::op::OperandList) and one integer
//!   [hasher](crate::hash::FxHasher).
//!
//! ```
//! use prism_ir::prelude::*;
//!
//! let mut shader = Shader::new("example");
//! shader.outputs.push(OutputVar { name: "color".into(), ty: IrType::fvec(4) });
//! let r = shader.new_reg(IrType::fvec(4));
//! shader.body = vec![
//!     Stmt::Def { dst: r, op: Op::Splat { ty: IrType::fvec(4), value: Operand::float(1.0) } },
//!     Stmt::StoreOutput { output: 0, components: None, value: Operand::Reg(r) },
//! ];
//! prism_ir::verify::verify(&shader).unwrap();
//! let ctx = FragmentContext::with_defaults(&shader, 0.5, 0.5);
//! let result = prism_ir::interp::run_fragment(&shader, &ctx).unwrap();
//! assert_eq!(result.outputs[0], vec![1.0; 4]);
//! ```

pub mod analysis;
pub mod counters;
pub mod fingerprint;
pub mod hash;
pub mod interp;
pub mod op;
pub mod serde_impls;
pub mod shader;
pub mod stmt;
pub mod types;
pub mod value;
pub mod value_key;
pub mod verify;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::fingerprint::{fingerprint, Fingerprint};
    pub use crate::interp::{run_fragment, FragmentContext, FragmentResult};
    pub use crate::op::{BinaryOp, Intrinsic, Op, UnaryOp};
    pub use crate::shader::{
        ConstArray, InputVar, OutputVar, RegInfo, SamplerVar, Shader, UniformVar,
    };
    pub use crate::stmt::Stmt;
    pub use crate::types::{IrType, Scalar, TextureDim};
    pub use crate::value::{Constant, Operand, Reg};
}

pub use prelude::*;
