//! Divergence-focused differential testing for the SPMD lane VM.
//!
//! Where `vm_differential.rs` sweeps the whole language surface, this
//! suite generates programs that are *pathologically branchy* — nested
//! `if`/`else` keyed on per-lane uniforms, `discard` inside branches,
//! short-circuit `&&`/`||`, and loops whose `break`/`continue` depth
//! depends on lane data — then runs them under `Spmd{4}` and `Spmd{8}`
//! at every batch width from one lane up to full occupancy (the
//! partial-band tails the rasteriser produces at band edges).
//!
//! A second generator targets the SPMD VM's write rule: below the
//! values deferred contexts still hold, writes are masked, above them
//! wholesale. Its `?:` and `if` arms push `float`, `vec2` and `bool`
//! temporaries inside larger expressions (so a slot's type changes
//! under divergence), call user functions with `in`/`out`/`inout`
//! parameters from divergent arms, and nest splits under values an
//! outer deferred context still holds.
//!
//! Oracles are the scalar bytecode VM *and* the tree-walking
//! interpreter, each run invocation-by-invocation in lane order.
//! Everything must be bit-identical: colour bits, discard and output
//! flags, aggregate `OpProfile` counters, and trap messages.

use gpes_glsl::exec::{FloatModel, NoTextures};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::SpmdVm;
use gpes_glsl::vm::Vm;
use gpes_glsl::{compile, lower, ShaderKind, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Branch-heavy generator
// ---------------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flt(&mut self) -> f32 {
        let v = (self.next() % 2000) as f32 / 100.0 - 10.0;
        (v * 100.0).round() / 100.0
    }
}

struct Gen {
    rng: Rng,
    next_id: u32,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            next_id: 0,
        }
    }

    /// A scalar expression over the uniforms — cheap on purpose; the
    /// interesting structure lives in the control flow around it.
    fn scalar(&mut self) -> String {
        match self.rng.below(6) {
            0 => format!("{:?}", self.rng.flt()),
            1 => "u_a".into(),
            2 => "u_b".into(),
            3 => {
                let sw = ["x", "y", "z", "w"][self.rng.below(4) as usize];
                format!("u_v.{sw}")
            }
            4 => format!("(u_a * {:?})", self.rng.flt()),
            _ => format!("fract(u_b + {:?})", self.rng.flt()),
        }
    }

    /// A comparison that genuinely splits lanes fed different uniforms.
    fn cmp(&mut self) -> String {
        let a = self.scalar();
        let b = self.scalar();
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.below(6) as usize];
        format!("{a} {op} {b}")
    }

    /// Conditions lean hard on short-circuit `&&`/`||`: under SPMD the
    /// right-hand side must only run for the lanes still undecided.
    fn cond(&mut self) -> String {
        match self.rng.below(4) {
            0 => self.cmp(),
            1 => {
                let a = self.cmp();
                let b = self.cmp();
                format!("({a}) && ({b})")
            }
            2 => {
                let a = self.cmp();
                let b = self.cmp();
                format!("({a}) || ({b})")
            }
            _ => {
                let a = self.cmp();
                let b = self.cmp();
                let c = self.cmp();
                format!("(({a}) && ({b})) || ({c})")
            }
        }
    }

    fn stmt(&mut self, out: &mut String, indent: usize, depth: u32) {
        let pad = "    ".repeat(indent);
        match self.rng.below(if depth < 3 { 7 } else { 3 }) {
            0 => {
                let e = self.scalar();
                out.push_str(&format!("{pad}acc += {e};\n"));
            }
            1 => {
                let c = self.cond();
                let a = self.scalar();
                let b = self.scalar();
                out.push_str(&format!("{pad}acc = ({c}) ? {a} : {b};\n"));
            }
            2 => {
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{ discard; }}\n"));
            }
            3 => {
                // Nested divergence: lanes that took this branch may
                // split again inside it.
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}} else {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            4 => {
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{\n"));
                self.stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            5 => {
                // Loop with a data-dependent early exit: trip count
                // differs per lane, so reconvergence happens at the
                // loop's merge point, not per iteration.
                self.next_id += 1;
                let i = format!("i{}", self.next_id);
                let n = 2 + self.rng.below(6);
                let t = self.rng.flt();
                let exit = ["break", "continue"][self.rng.below(2) as usize];
                out.push_str(&format!(
                    "{pad}for (int {i} = 0; {i} < {n}; {i}++) {{\n\
                     {pad}    if (acc * float({i}) > {t:?}) {{ {exit}; }}\n\
                     {pad}    acc += float({i}) * 0.125;\n"
                ));
                if depth < 2 {
                    self.stmt(out, indent + 1, depth + 2);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                // Divergent discard nested under another branch.
                let c1 = self.cond();
                let c2 = self.cond();
                out.push_str(&format!(
                    "{pad}if ({c1}) {{\n\
                     {pad}    if ({c2}) {{ discard; }}\n\
                     {pad}    acc *= 0.5;\n\
                     {pad}}}\n"
                ));
            }
        }
    }

    fn program(&mut self) -> String {
        let mut src = String::from(
            "precision highp float;\n\
             uniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\nuniform int u_i;\n\
             void main() {\n\
             \x20   float acc = u_a;\n",
        );
        let n = 4 + self.rng.below(5);
        for _ in 0..n {
            self.stmt(&mut src, 1, 0);
        }
        src.push_str("    gl_FragColor = vec4(acc, u_b - acc, fract(acc), 1.0);\n}\n");
        src
    }

    // ---- type-changing divergence --------------------------------------

    /// A `float` expression; `?:` arms and operands mix in `bool` and
    /// `vec2` temporaries and calls with `out`/`inout` parameters.
    fn fexpr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return self.scalar();
        }
        let d = depth - 1;
        match self.rng.below(10) {
            0 => self.scalar(),
            1 => format!(
                "({} ? {} : {})",
                self.bexpr(d),
                self.fexpr(d),
                self.fexpr(d)
            ),
            2 => format!("({} + {})", self.fexpr(d), self.fexpr(d)),
            3 => format!("({} * float({}))", self.fexpr(d), self.bexpr(d)),
            4 => format!("dot({}, {})", self.vexpr(d), self.vexpr(d)),
            5 => format!("length({})", self.vexpr(d)),
            6 => {
                let c = ["x", "y"][self.rng.below(2) as usize];
                format!("({}).{c}", self.vexpr(d))
            }
            7 => format!("twist({}, w, big)", self.fexpr(d)),
            8 => format!("clip({}, w)", self.fexpr(d)),
            _ => format!("({} - {})", self.scalar(), self.fexpr(d)),
        }
    }

    /// A `vec2` expression.
    fn vexpr(&mut self, depth: u32) -> String {
        let leaf = |g: &mut Gen| match g.rng.below(4) {
            0 => "u_v.xy".to_string(),
            1 => "u_v.zw".to_string(),
            2 => "w".to_string(),
            _ => format!("vec2({})", g.scalar()),
        };
        if depth == 0 {
            return leaf(self);
        }
        let d = depth - 1;
        match self.rng.below(6) {
            0 => leaf(self),
            1 => format!(
                "({} ? {} : {})",
                self.bexpr(d),
                self.vexpr(d),
                self.vexpr(d)
            ),
            2 => format!("vec2({}, {})", self.fexpr(d), self.fexpr(d)),
            3 => format!("({} * {})", self.vexpr(d), self.fexpr(d)),
            4 => format!("({} + {})", self.vexpr(d), self.vexpr(d)),
            _ => format!("({}).yx", self.vexpr(d)),
        }
    }

    /// A `bool` expression.
    fn bexpr(&mut self, depth: u32) -> String {
        if depth == 0 {
            return match self.rng.below(4) {
                0 => "big".into(),
                _ => self.cmp(),
            };
        }
        let d = depth - 1;
        match self.rng.below(7) {
            0 => self.cmp(),
            1 => format!(
                "({} ? {} : {})",
                self.bexpr(d),
                self.bexpr(d),
                self.bexpr(d)
            ),
            2 => format!("({} < {})", self.fexpr(d), self.fexpr(d)),
            3 => format!("!({})", self.bexpr(d)),
            4 => format!("gate({}, {})", self.vexpr(d), self.fexpr(d)),
            5 => format!("(({}) && ({}))", self.bexpr(d), self.bexpr(d)),
            _ => format!("(({}) == ({}))", self.bexpr(d), self.bexpr(d)),
        }
    }

    fn typed_stmt(&mut self, out: &mut String, indent: usize, depth: u32) {
        let pad = "    ".repeat(indent);
        match self.rng.below(if depth < 2 { 9 } else { 5 }) {
            0 => {
                let e = self.fexpr(3);
                out.push_str(&format!("{pad}acc += {e};\n"));
            }
            1 => {
                let e = self.vexpr(2);
                out.push_str(&format!("{pad}w = {e};\n"));
            }
            2 => {
                let e = self.bexpr(2);
                out.push_str(&format!("{pad}big = {e};\n"));
            }
            3 => {
                // A call with `out`/`inout` parameters from one arm of a
                // divergent `?:`.
                let c = self.bexpr(1);
                let x = self.fexpr(1);
                out.push_str(&format!(
                    "{pad}acc = ({c}) ? twist({x}, w, big) : acc * 0.5;\n"
                ));
            }
            4 => {
                // Locals of different types in sibling arms.
                let c = self.bexpr(1);
                let v = self.vexpr(2);
                let b = self.bexpr(2);
                out.push_str(&format!(
                    "{pad}if ({c}) {{ vec2 q = {v}; acc += q.y; }} \
                     else {{ bool t = {b}; acc += t ? 1.0 : -1.0; }}\n"
                ));
            }
            5 => {
                // Nested split under a value the outer deferred lanes
                // still hold (`keep` and the outer arm's result).
                self.next_id += 1;
                let k = format!("keep{}", self.next_id);
                let c = self.bexpr(1);
                let init = self.fexpr(2);
                out.push_str(&format!("{pad}if ({c}) {{\n{pad}    float {k} = {init};\n"));
                self.typed_stmt(out, indent + 1, depth + 1);
                self.typed_stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}    acc += {k};\n{pad}}} else {{\n"));
                self.typed_stmt(out, indent + 1, depth + 1);
                out.push_str(&format!("{pad}}}\n"));
            }
            6 => {
                let c = self.bexpr(1);
                let x = self.fexpr(2);
                out.push_str(&format!(
                    "{pad}if ({c}) {{ split({x}, hi, parts); acc += hi - parts.y; }}\n"
                ));
            }
            7 => {
                // `clip`'s early return leaves some lanes suspended in
                // its frame while the others already bind `twist`'s
                // parameters into the same locals slots.
                let x = self.fexpr(1);
                let y = self.fexpr(1);
                out.push_str(&format!("{pad}acc += clip({x}, w) * twist({y}, w, big);\n"));
            }
            _ => {
                let c = self.cond();
                out.push_str(&format!("{pad}if ({c}) {{ discard; }}\n"));
            }
        }
    }

    fn typed_program(&mut self) -> String {
        let mut src = String::from(
            "precision highp float;\n\
             uniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\nuniform int u_i;\n\
             float twist(float x, inout vec2 w, out bool big) {\n\
             \x20   big = x > 1.5;\n\
             \x20   w = big ? w.yx * 0.5 : w + vec2(x, -x);\n\
             \x20   return big ? length(w) : float(x < 0.0) - x;\n\
             }\n\
             void split(float x, out float hi, out vec2 parts) {\n\
             \x20   hi = floor(x);\n\
             \x20   parts = x > 0.0 ? vec2(fract(x), hi) : vec2(hi, x < -2.0);\n\
             }\n\
             float clip(float x, inout vec2 w) {\n\
             \x20   if (x > w.x) { return x - w.x; }\n\
             \x20   w = w * 0.5 + vec2(x);\n\
             \x20   float r = x * w.y;\n\
             \x20   return r;\n\
             }\n\
             bool gate(vec2 w, float t) {\n\
             \x20   return w.x > t ? w.y < t : t > 0.0;\n\
             }\n\
             void main() {\n\
             \x20   float acc = u_a;\n\
             \x20   vec2 w = u_v.zw;\n\
             \x20   bool big = u_b > 0.0;\n\
             \x20   float hi = 0.0;\n\
             \x20   vec2 parts = vec2(0.0);\n",
        );
        let n = 3 + self.rng.below(4);
        for _ in 0..n {
            self.typed_stmt(&mut src, 1, 0);
        }
        src.push_str(
            "    gl_FragColor = vec4(acc, w.x + hi, w.y + parts.x, big ? 1.0 : parts.y);\n}\n",
        );
        src
    }
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

fn uniforms(seed: u64) -> Vec<(&'static str, Value)> {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
    vec![
        ("u_a", Value::Float(rng.flt())),
        ("u_b", Value::Float(rng.flt())),
        (
            "u_v",
            Value::Vec4([rng.flt(), rng.flt(), rng.flt(), rng.flt()]),
        ),
        ("u_i", Value::Int(rng.below(11) as i32 - 5)),
    ]
}

fn check_divergent(seed: u64, src: &str) {
    let shader = match compile(ShaderKind::Fragment, src) {
        Ok(s) => s,
        Err(e) => panic!("generated program failed to compile: {e}\n{src}"),
    };
    let exe = match lower(&shader) {
        Ok(e) => e,
        Err(e) => panic!("generated program failed to lower: {e}\n{src}"),
    };
    let tex = NoTextures;
    let lane_seed = |lane: usize| seed ^ (lane as u64).wrapping_mul(0x9E37_79B9);
    for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
        for lanes in [4usize, 8] {
            // Every batch width, including the partial tails a band edge
            // produces: active < lanes leaves the trailing lanes idle.
            for active in 1..=lanes {
                let mut spmd = SpmdVm::with_model(&exe, &tex, model, lanes).expect("spmd init");
                let mut scalar = Vm::with_model(&exe, &tex, model).expect("vm init");
                let mut interp =
                    Interpreter::with_model(&shader, &tex, model).expect("interp init");
                for lane in 0..active {
                    for (name, value) in uniforms(lane_seed(lane)) {
                        let slot = spmd.global_slot(name).expect("spmd uniform slot");
                        spmd.set_lane_slot(lane, slot, value);
                    }
                }
                let batch = spmd.run_batch(active);
                let stop = match &batch {
                    Ok(()) => active,
                    Err(e) => e.lane,
                };
                for lane in 0..stop {
                    for (name, value) in uniforms(lane_seed(lane)) {
                        scalar.set_global(name, value.clone()).expect("vm uniform");
                        interp.set_global(name, value).expect("interp uniform");
                    }
                    scalar.run_main().unwrap_or_else(|e| {
                        panic!(
                            "scalar oracle trapped before the SPMD batch did \
                             (seed {seed}, {model:?}, lane {lane}): {e}\n{src}"
                        )
                    });
                    interp.run_main().expect("interp oracle trapped");
                    assert!(
                        spmd.completed(lane),
                        "lane {lane} not retired (seed {seed}, {model:?})\n{src}"
                    );
                    assert_eq!(
                        spmd.discarded(lane),
                        scalar.discarded(),
                        "lane {lane} discard flag diverged (seed {seed}, {model:?})\n{src}"
                    );
                    assert_eq!(
                        scalar.discarded(),
                        interp.discarded(),
                        "oracles disagree on discard (seed {seed}, {model:?})\n{src}"
                    );
                    // A discarded lane never writes its colour: the
                    // sequentially-reused scalar oracle keeps the previous
                    // invocation's value there, so only compare colours
                    // for surviving lanes (what the rasteriser consumes).
                    if !scalar.discarded() {
                        let sc = spmd.frag_color(lane).map(|c| c.map(f32::to_bits));
                        assert_eq!(
                            sc,
                            scalar.frag_color().map(|c| c.map(f32::to_bits)),
                            "lane {lane} diverged from scalar VM (seed {seed}, {model:?}, \
                             {lanes} lanes, {active} active)\n{src}"
                        );
                        assert_eq!(
                            sc,
                            interp.frag_color().map(|c| c.map(f32::to_bits)),
                            "lane {lane} diverged from tree-walker (seed {seed}, {model:?}, \
                             {lanes} lanes, {active} active)\n{src}"
                        );
                    }
                    assert_eq!(
                        spmd.wrote_outputs(lane),
                        scalar.wrote_outputs(),
                        "lane {lane} output flags diverged (seed {seed}, {model:?})\n{src}"
                    );
                }
                match batch {
                    Ok(()) => {
                        assert_eq!(
                            spmd.profile(),
                            scalar.profile(),
                            "aggregate profile diverged from scalar VM (seed {seed}, \
                             {model:?}, {lanes} lanes, {active} active)\n{src}"
                        );
                        assert_eq!(
                            spmd.profile(),
                            interp.profile(),
                            "aggregate profile diverged from tree-walker (seed {seed}, \
                             {model:?}, {lanes} lanes, {active} active)\n{src}"
                        );
                    }
                    Err(e) => {
                        for (name, value) in uniforms(lane_seed(e.lane)) {
                            scalar.set_global(name, value).expect("vm uniform");
                        }
                        let se = scalar
                            .run_main()
                            .expect_err("SPMD trapped where the scalar oracle succeeded");
                        assert_eq!(
                            e.error.to_string(),
                            se.to_string(),
                            "trap diverged (seed {seed}, {model:?}, lane {})\n{src}",
                            e.lane
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Branch-heavy generated programs stay bit-identical across the
    /// SPMD VM, scalar VM, and tree-walker at every batch width.
    #[test]
    fn spmd_matches_oracles_on_divergent_programs(seed in 0u64..1_000_000) {
        check_divergent(seed, &Gen::new(seed).program());
    }

    /// Divergent arms that change slot types, call with `out`/`inout`
    /// parameters and nest under deferred live values stay bit-identical
    /// across the SPMD VM, scalar VM and tree-walker.
    #[test]
    fn spmd_matches_oracles_on_type_changing_divergence(seed in 0u64..1_000_000) {
        check_divergent(seed, &Gen::new(seed).typed_program());
    }
}

/// Fixed seeds always run, independent of `PROPTEST_CASES`.
#[test]
fn spmd_matches_oracles_on_fixed_seeds() {
    for seed in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 4242, 777_777] {
        check_divergent(seed, &Gen::new(seed).program());
        check_divergent(seed, &Gen::new(seed).typed_program());
    }
}
