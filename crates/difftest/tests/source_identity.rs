//! Parsing an emitted source gives back the generated program.
//!
//! A campaign compiles the generated AST directly on every side whose
//! source no translator rewrites (nvcc, and hipcc in a direct campaign),
//! and parses text only where HIPIFY converted it. That is sound only if
//! the text path would have produced the same program, so this test pins
//! the identity over `gpucc`'s `compile_digest` corpus: 120 programs per
//! precision, seed 2024, `GenConfig::varity_default`. For each program,
//! parsing its CUDA emission, its HIP emission and HIPIFY's conversion of
//! the CUDA must each return the generated `Program`, field for field.
//! The differential execution tier repeats the first two checks on every
//! test a campaign runs.

use hipify::hipify;
use progen::emit::{emit, Dialect};
use progen::gen::generate_program;
use progen::grammar::GenConfig;
use progen::parser::parse_kernel;
use progen::Precision;

const SEED: u64 = 2024;
const PROGRAMS: u64 = 120;

#[test]
fn every_source_of_the_compile_corpus_parses_back_to_its_program() {
    let mut parses = 0;
    for precision in [Precision::F32, Precision::F64] {
        let cfg = GenConfig::varity_default(precision);
        for index in 0..PROGRAMS {
            let program = generate_program(&cfg, SEED, index);
            let cuda = emit(&program, Dialect::Cuda);
            let sources = [
                ("CUDA", cuda.clone()),
                ("HIP", emit(&program, Dialect::Hip)),
                ("hipified CUDA", hipify(&cuda).source),
            ];
            for (what, src) in sources {
                let parsed = parse_kernel(&src, &program.id)
                    .unwrap_or_else(|e| panic!("{}'s {what} does not parse: {e}", program.id));
                assert_eq!(parsed, program, "{}'s {what} parses to another program", program.id);
                parses += 1;
            }
        }
    }
    assert_eq!(parses, 2 * PROGRAMS * 3);
}
