//! The front end's output, pinned in bits: for every stencil of a corpus of
//! programs, the parsed AST, its field accesses and the compiled kernel's
//! instruction stream and slots. A change to the lexer, the parser, the
//! access extraction, the constant folder, the lowering or the optimizer
//! passes that moves any of them moves the one hash below. The unoptimized
//! stream of each kernel is hashed too, so the lowering is pinned on its
//! own.

use stencilflow::dataflow::fuse_all;
use stencilflow::expr::{parse_program, AccessExtractor, CompiledKernel, FieldAccesses, Program};
use stencilflow::program::StencilProgram;
use stencilflow::workloads::{
    analyze_suite, chain_program, execution_suite, horizontal_diffusion, random_dag, ChainSpec,
    HorizontalDiffusionSpec,
};

/// FNV-1a (64-bit) over `Debug` renderings, one after the other.
struct Fnv(u64);

impl Fnv {
    fn debug(&mut self, value: &impl std::fmt::Debug) {
        for &b in format!("{value:?}").as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn kernel(&mut self, ast: &Program, accesses: &FieldAccesses) {
        self.debug(ast);
        self.debug(accesses);
        let kernel = CompiledKernel::compile(ast).expect("corpus kernels compile");
        self.debug(&kernel.ops());
        self.debug(&kernel.slots());
        let raw = CompiledKernel::compile_unoptimized(ast).expect("corpus kernels compile");
        self.debug(&raw.ops());
    }
}

fn corpus() -> Vec<StencilProgram> {
    let mut programs = analyze_suite();
    programs.extend(execution_suite());
    programs.push(horizontal_diffusion(&HorizontalDiffusionSpec::production(
        1,
    )));
    programs.push(chain_program(&ChainSpec::new(64, 16)));
    programs.extend((0..512).map(random_dag));
    let fused: Vec<StencilProgram> = programs
        .iter()
        .map(|program| fuse_all(program).expect("corpus programs fuse"))
        .collect();
    programs.extend(fused);
    programs
}

/// Ternaries, short-circuit logic, integer division by zero and dead
/// stores: the shapes the optimizer rewrites or must leave alone.
const HAND_WRITTEN: [&str; 5] = [
    "t = a[i-1] + a[i+1]; a[i] > 0.0 ? t : -t",
    "(a[i] > 0.0 && b[i] > 0.0) || !(dt < 1.0) ? 1.5 : -0.0",
    "x = 1 / 0; a[i] > 0.0 ? a[i] / b[i] : 2 / 0",
    "x = a[i-1] * dt; y = x + 1.0; x = a[i+1] - 0.0; z = min(x, 2.0); z * z",
    "u = (a[i] + 1.0) * (a[i] + 1.0); v = u > 4.0 ? sqrt(u) : pow(u, 0.5); -v + u - 3.0 * 2.0",
];

#[test]
fn the_front_end_output_does_not_move() {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut kernels = 0usize;
    for program in corpus() {
        for stencil in program.stencils() {
            hash.kernel(&stencil.program, &stencil.accesses);
            kernels += 1;
        }
    }
    for code in HAND_WRITTEN {
        let ast = parse_program(code).expect("hand-written kernels parse");
        hash.kernel(&ast, &AccessExtractor::extract(&ast));
        kernels += 1;
    }
    assert_eq!(kernels, 3804);
    assert_eq!(hash.0, 0xd328_3bf1_688b_3f86, "front-end output moved");
}
