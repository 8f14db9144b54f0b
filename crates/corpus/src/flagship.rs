//! Hand-written flagship shaders, including the paper's motivating example.

/// The paper's Listing 1: a 9-tap weighted blur whose loop, constant weight
/// table and shared `3.0 * ambient` factor give the offline optimizer its
/// largest wins (§II, Fig. 3).
pub const BLUR9: &str = r#"
out vec4 fragColor;
in vec2 uv;
uniform sampler2D tex;
uniform vec4 ambient;
void main() {
    const vec4[] weights = vec4[](
        vec4(0.01), vec4(0.03), vec4(0.15), vec4(0.42), vec4(0.63),
        vec4(0.42), vec4(0.15), vec4(0.03), vec4(0.01));
    const vec2[] offsets = vec2[](
        vec2(-0.0083), vec2(-0.0062), vec2(-0.0042), vec2(-0.0021), vec2(0.0),
        vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
    float weightTotal = 0.0;
    fragColor = vec4(0.0);
    for (int i = 0; i < 9; i++) {
        weightTotal += weights[i][0];
        fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
    }
    fragColor /= weightTotal;
}
"#;

/// The corpus name used for the motivating example.
pub const BLUR9_NAME: &str = "flagship_blur9";

/// A filmic tonemapping pass: transcendental heavy, division by constants,
/// no control flow — representative of GFXBench's post-processing shaders.
pub const TONEMAP: &str = r#"
out vec4 fragColor;
in vec2 uv;
uniform sampler2D hdrBuffer;
uniform float exposure;
uniform float gamma;
void main() {
    vec3 hdr = texture(hdrBuffer, uv).rgb;
    vec3 exposed = hdr * exposure * 1.0;
    vec3 x = max(exposed - vec3(0.004), vec3(0.0));
    vec3 numerator = x * (6.2 * x + vec3(0.5));
    vec3 denominator = x * (6.2 * x + vec3(1.7)) + vec3(0.06);
    vec3 mapped = numerator / denominator;
    vec3 corrected = pow(mapped, vec3(1.0 / 2.2));
    fragColor.rgb = corrected / gamma;
    fragColor.a = 1.0;
}
"#;

/// Corpus name of the tonemap flagship.
pub const TONEMAP_NAME: &str = "flagship_tonemap";

/// A deferred point-light accumulation shader: matrix transforms, dot-product
/// lighting, conditionals and a discard — representative of GFXBench's
/// heavier lit geometry shaders.
pub const DEFERRED_LIGHT: &str = r#"
out vec4 fragColor;
in vec2 uv;
in vec3 viewRay;
uniform sampler2D gbufferAlbedo;
uniform sampler2D gbufferNormal;
uniform sampler2D gbufferDepth;
uniform mat4 invView;
uniform vec4 lightPosRadius;
uniform vec4 lightColor;
uniform float ambientLevel;
void main() {
    vec4 albedo = texture(gbufferAlbedo, uv);
    vec3 normal = normalize(texture(gbufferNormal, uv).xyz * 2.0 - vec3(1.0));
    float depth = texture(gbufferDepth, uv).x;
    if (depth > 0.9999) {
        discard;
    }
    vec3 viewPos = viewRay * depth;
    vec4 worldPos = invView * vec4(viewPos, 1.0);
    vec3 toLight = lightPosRadius.xyz - worldPos.xyz;
    float dist = length(toLight);
    vec3 lightDir = toLight / dist;
    float atten = clamp(1.0 - dist / lightPosRadius.w, 0.0, 1.0);
    atten = atten * atten;
    float ndotl = max(dot(normal, lightDir), 0.0);
    vec3 diffuse = albedo.rgb * lightColor.rgb * ndotl * atten;
    vec3 ambient = albedo.rgb * ambientLevel * 0.25;
    fragColor.rgb = diffuse + ambient;
    fragColor.a = albedo.a;
}
"#;

/// Corpus name of the deferred-lighting flagship.
pub const DEFERRED_LIGHT_NAME: &str = "flagship_deferred_light";

/// All flagship shaders as `(name, source)` pairs.
pub fn all() -> Vec<(&'static str, &'static str)> {
    vec![
        (BLUR9_NAME, BLUR9),
        (TONEMAP_NAME, TONEMAP),
        (DEFERRED_LIGHT_NAME, DEFERRED_LIGHT),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_glsl::ShaderSource;
    use std::collections::HashMap;

    #[test]
    fn all_flagships_pass_the_front_end() {
        for (name, src) in all() {
            let parsed = ShaderSource::preprocess_and_parse(src, &HashMap::new());
            assert!(parsed.is_ok(), "{name} failed the front-end: {parsed:?}");
        }
    }

    #[test]
    fn blur9_matches_the_paper_listing_shape() {
        let s = ShaderSource::preprocess_and_parse(BLUR9, &HashMap::new()).unwrap();
        assert_eq!(s.interface().samplers.len(), 1);
        assert_eq!(s.interface().uniforms.len(), 1);
        assert_eq!(s.interface().inputs.len(), 1);
        // 9 weights, 9 offsets, one loop.
        assert!(s.text.contains("for (int i = 0; i < 9; i++)"));
    }

    #[test]
    fn flagship_names_are_unique() {
        let names: Vec<&str> = all().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
