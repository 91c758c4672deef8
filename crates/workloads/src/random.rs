//! Seeded random stencil DAGs for differential tests.
//!
//! One generator for every suite that compares two implementations of the
//! same semantics on programs nobody wrote by hand: the reference
//! executor's tiers against the interpreter, the simulator's split engine
//! against its value-carrying oracle loop.

use stencilflow_expr::DataType;
use stencilflow_program::{BoundaryCondition, StencilProgram, StencilProgramBuilder};

/// `name[i+1,j,k-2]`: an access to a field spanning `dims` at `offsets`.
fn access(name: &str, dims: &[&str], offsets: &[i64]) -> String {
    let indices: Vec<String> = dims
        .iter()
        .zip(offsets)
        .map(|(dim, &offset)| match offset {
            0 => dim.to_string(),
            o if o > 0 => format!("{dim}+{o}"),
            o => format!("{dim}{o}"),
        })
        .collect();
    format!("{name}[{}]", indices.join(","))
}

/// A small random program, the same for the same `seed`: a 2-D or 3-D
/// domain whose innermost extent straddles the lane width, a full-rank
/// input `src` and a lower-rank input `coef`, and one to six stages. Every
/// stage reads an earlier field at a small offset and at the centre; some
/// also read a second earlier field (so fields fan out to several readers
/// and paths of different length reconverge) or scale by `coef`. Boundary
/// handling is constant, copy or shrink; some stages produce `float64`;
/// the last stage and sometimes one more are program outputs.
pub fn random_dag(seed: u64) -> StencilProgram {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut next = |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound
    };
    let all_dims = ["i", "j", "k"];
    let shape: Vec<usize> = if next(3) == 0 {
        vec![
            3 + next(3) as usize,
            3 + next(4) as usize,
            5 + next(8) as usize,
        ]
    } else {
        vec![5 + next(6) as usize, 7 + next(10) as usize]
    };
    let dims = &all_dims[..shape.len()];
    // `coef` spans a non-empty proper subset of the dimensions.
    let subset = 1 + next((1 << dims.len()) - 2);
    let coef_dims: Vec<&str> = (0..dims.len())
        .filter(|d| subset >> d & 1 == 1)
        .map(|d| dims[d])
        .collect();
    let mut builder = StencilProgramBuilder::new("random", &shape)
        .input("src", DataType::Float32, dims)
        .input("coef", DataType::Float32, &coef_dims);

    let stages = 1 + next(6) as usize;
    let mut produced = vec!["src".to_string()];
    for stage in 0..stages {
        let name = format!("s{stage}");
        let mut offsets = vec![0i64; dims.len()];
        offsets[0] = next(5) as i64 - 2;
        *offsets.last_mut().expect("rank >= 2") = next(3) as i64 - 1;
        let centre = vec![0i64; dims.len()];
        // The last of several stages reads its predecessor, so a second
        // read of an older field closes a reconvergent path.
        let a = if stage > 0 && stage + 1 == stages {
            produced[stage].clone()
        } else {
            produced[next(produced.len() as u64) as usize].clone()
        };
        let mut code = format!(
            "0.5 * {} + 0.25 * {} + 1.0",
            access(&a, dims, &offsets),
            access(&a, dims, &centre)
        );
        let mut read = vec![a];
        if next(2) == 0 {
            let b = produced[next(produced.len() as u64) as usize].clone();
            let mut shifted = centre.clone();
            shifted[dims.len() - 1] = next(5) as i64 - 2;
            code = format!("{code} - 0.125 * {}", access(&b, dims, &shifted));
            read.push(b);
        }
        if next(3) == 0 {
            let zero = vec![0i64; coef_dims.len()];
            code = format!("({code}) * {}", access("coef", &coef_dims, &zero));
        }
        builder = builder.stencil(&name, &code);
        match next(3) {
            0 => {
                for field in &read {
                    builder = builder.boundary(&name, field, BoundaryCondition::Constant(2.5));
                }
            }
            1 => {
                for field in &read {
                    builder = builder.boundary(&name, field, BoundaryCondition::Copy);
                }
            }
            _ => builder = builder.shrink(&name),
        }
        if next(4) == 0 {
            builder = builder.output_type(&name, DataType::Float64);
        }
        produced.push(name);
    }
    builder = builder.output(&produced[stages]);
    if stages > 1 && next(4) == 0 {
        builder = builder.output(&produced[1 + next(stages as u64 - 1) as usize]);
    }
    builder
        .build()
        .expect("generated programs are valid by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_dags_are_reproducible_and_cover_the_shapes_they_promise() {
        let (mut three_d, mut fan_out, mut reconvergent, mut wide, mut two_outputs) =
            (0, 0, 0, 0, 0);
        for seed in 0..64 {
            let program = random_dag(seed);
            assert_eq!(program, random_dag(seed), "seed {seed}");
            assert!(program.input("coef").unwrap().rank() < program.space().rank());
            three_d += usize::from(program.space().rank() == 3);
            two_outputs += usize::from(program.outputs().len() == 2);
            let readers = |field: &str| {
                program
                    .stencils()
                    .filter(|s| s.accesses.contains(field))
                    .count()
            };
            fan_out += usize::from(
                std::iter::once("src")
                    .chain(program.stencils().map(|s| s.name.as_str()))
                    .any(|field| readers(field) > 1),
            );
            // Every full-rank field descends from `src`, so a stage reading
            // two of them joins two paths from it (of different length,
            // unless both fields sit at the same depth).
            reconvergent += usize::from(
                program
                    .stencils()
                    .any(|s| s.accesses.fields().filter(|&field| field != "coef").count() == 2),
            );
            wide += usize::from(
                program
                    .stencils()
                    .any(|s| s.output_type == DataType::Float64),
            );
        }
        assert!((8..=40).contains(&three_d), "{three_d}");
        assert!(fan_out >= 16, "{fan_out}");
        assert!(reconvergent >= 16, "{reconvergent}");
        assert!(wide >= 8, "{wide}");
        assert!(two_outputs >= 4, "{two_outputs}");
    }
}
