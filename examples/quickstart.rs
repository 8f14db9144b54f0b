//! Quickstart: optimize one shader and see what each platform thinks of it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use prism::core::{CompileSession, Flag, OptFlags};
use prism::emit::BackendKind;
use prism::glsl::ShaderSource;
use prism::gpu::{Platform, Vendor};

fn main() {
    // The paper's motivating example (Listing 1): a 9-tap weighted blur.
    let source = ShaderSource::parse(prism::corpus::flagship::BLUR9).expect("front-end");
    println!(
        "original shader: {} lines of code\n",
        source.lines_of_code()
    );

    // Compile it with the flag set the paper's custom passes target. The
    // session serves every platform's source form from one optimized IR.
    let flags = OptFlags::from_flags(&[
        Flag::Unroll,
        Flag::Coalesce,
        Flag::FpReassociate,
        Flag::DivToMul,
    ]);
    let session = CompileSession::new(&source, "blur9").expect("session");
    let optimized = session.compile(flags).expect("optimizer");
    println!("--- optimized GLSL ({flags}) ---\n{}\n", optimized.glsl);

    // Submit both versions to each simulated GPU — in the source form its
    // driver consumes — and compare.
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>9}",
        "platform", "backend", "original (ns)", "optimized (ns)", "speed-up"
    );
    for vendor in Vendor::ALL {
        let platform = Platform::new(vendor);
        let backend = platform.backend();
        // Desktop OpenGL drivers take the original text as-is; every other
        // driver measures the original through the conversion path.
        let original_converted;
        let original: &str = if backend == BackendKind::DesktopGlsl {
            &source.text
        } else {
            original_converted = session.base_text_for(backend);
            &original_converted
        };
        let optimized_text = session.text_for(flags, backend).expect("emit");
        let before = platform
            .submit(original, "blur9")
            .expect("driver")
            .ideal_frame_ns;
        let after = platform
            .submit(&optimized_text, "blur9")
            .expect("driver")
            .ideal_frame_ns;
        println!(
            "{:<10} {:>8} {:>14.0} {:>14.0} {:>+8.2}%",
            vendor.name(),
            backend.name(),
            before,
            after,
            (before - after) / before * 100.0
        );
    }
}
