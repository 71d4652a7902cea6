//! The rasterisation pipeline: vertex shading, primitive assembly,
//! triangle rasterisation with a shared-edge-exact top-left fill rule,
//! perspective-correct varying interpolation and fragment dispatch.
//!
//! This is "Figure 1" of the paper as executable code: the programmable
//! vertex and fragment stages run through the `gpes-glsl` interpreter; the
//! fixed-function stages (assembly, rasterisation, framebuffer conversion)
//! are implemented here.
//!
//! Conformance notes for the GPGPU use case:
//!
//! * Only triangle primitives exist ([`PrimitiveMode`]) — limitation #2 of
//!   the paper. A screen-covering quad must be drawn as two triangles, and
//!   the top-left fill rule guarantees each pixel on the shared diagonal is
//!   shaded exactly once.
//! * There is no near-plane clipping: triangles with any `w ≤ 0` vertex are
//!   dropped. GPGPU geometry is always drawn with `w = 1`.
//! * Fragment dispatch bands the whole draw ([`Dispatch`]): the rows its
//!   triangles cover are split into one equal band per thread, and each
//!   band runs every triangle over its own rows in draw order. Output is
//!   bit-identical to a serial walk at any band count.

use crate::convert::{float_to_texel, StoreRounding};
use crate::error::GlError;
use crate::program::Program;
use crate::texture::Texture;
use gpes_glsl::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use gpes_glsl::interp::Interpreter;
use gpes_glsl::spmd::{SpmdVm, MAX_LANES};
use gpes_glsl::vm::Vm;
use gpes_glsl::{Type, Value};
use std::collections::HashMap;

/// Which shader executor runs the programmable stages.
///
/// All three produce bit-identical results and identical [`OpProfile`]s
/// (the differential suites assert it across every float model): the
/// tree-walker is the reference oracle, the scalar VM shades one
/// fragment per dispatch, and the SPMD VM shades up to
/// [`gpes_glsl::spmd::MAX_LANES`] band fragments per dispatch with
/// masked divergence — the default, mirroring how mobile GPUs extract
/// fragment-stage throughput (QPU-style lane parallelism).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Tree-walking interpreter ([`gpes_glsl::interp::Interpreter`]).
    TreeWalker,
    /// Slot-addressed scalar bytecode VM ([`gpes_glsl::vm::Vm`]), one
    /// fragment per dispatch.
    Scalar,
    /// SPMD bytecode VM ([`gpes_glsl::spmd::SpmdVm`]): `lanes` fragments
    /// per dispatch (clamped to `1..=8`). The vertex stage always runs
    /// scalar — it feeds primitive assembly sequentially.
    Spmd {
        /// Fragments shaded per VM dispatch.
        lanes: u8,
    },
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Spmd { lanes: 8 }
    }
}

impl ExecMode {
    /// Reads the `GPES_EXECUTOR` override (mirroring
    /// [`Dispatch::from_env`]): `tree`/`treewalker`/`interp`,
    /// `scalar`/`vm`/`bytecode`, `spmd` (8 lanes) or `spmdN` for N
    /// lanes. Returns `None` when unset or unrecognised.
    pub fn from_env() -> Option<ExecMode> {
        Self::parse(std::env::var("GPES_EXECUTOR").ok()?.as_str())
    }

    fn parse(s: &str) -> Option<ExecMode> {
        match s {
            "tree" | "treewalker" | "interp" => Some(ExecMode::TreeWalker),
            "scalar" | "vm" | "bytecode" => Some(ExecMode::Scalar),
            "spmd" => Some(ExecMode::Spmd { lanes: 8 }),
            _ => {
                let n = s.strip_prefix("spmd")?.parse::<u8>().ok()?;
                Some(ExecMode::Spmd {
                    lanes: n.clamp(1, MAX_LANES as u8),
                })
            }
        }
    }

    /// Lane width: the SPMD lane count, 1 for the scalar executors.
    pub fn lanes(self) -> u8 {
        match self {
            ExecMode::Spmd { lanes } => lanes.clamp(1, MAX_LANES as u8),
            _ => 1,
        }
    }

    /// Stable compact label (`tree`, `scalar`, `spmdN`) for stats
    /// snapshots and benchmark rows.
    pub fn label(self) -> String {
        match self {
            ExecMode::TreeWalker => "tree".into(),
            ExecMode::Scalar => "scalar".into(),
            ExecMode::Spmd { lanes } => format!("spmd{lanes}"),
        }
    }
}

/// Most varying components a program may interpolate: 8 vec4 rows, the
/// ES 2 minimum the paper's platform guarantees. Fixed-size per-fragment
/// buffers are sized by this, keeping interpolation allocation-free.
pub const MAX_VARYING_COMPONENTS: usize = 32;

/// Primitive topologies accepted by `draw_arrays`.
///
/// ES 2 also rasterises lines; this GPGPU-oriented subset supports the
/// triangle modes (the paper's screen-covering quad, workaround #2) plus
/// `POINTS`, which vertex-stage compute uses to scatter one work item per
/// output pixel (§III-1: kernels "can be implemented in the vertex or the
/// fragment processing stage").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveMode {
    /// Independent triangles; `count` must be a multiple of 3.
    Triangles,
    /// Strip: vertices (i, i+1, i+2) with alternating winding.
    TriangleStrip,
    /// Fan around vertex 0.
    TriangleFan,
    /// One point per vertex, sized by `gl_PointSize` (default 1);
    /// varyings pass through without interpolation.
    Points,
}

/// Fragment dispatch strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Single-threaded (deterministic op ordering, easiest to debug).
    Serial,
    /// Fixed number of row bands per draw: the calling thread shades the
    /// first and `n - 1` scoped threads the rest.
    Parallel(usize),
    /// One thread per available core (results identical to serial; the
    /// QPU-like data parallelism of fragment shading is order-independent).
    #[default]
    Auto,
}

impl Dispatch {
    /// Reads the `GPES_TEST_DISPATCH` override the CI dispatch matrix
    /// sets: `serial`/`1` forces single-threaded rasterisation, `auto`
    /// forces one thread per core, and a number forces that thread count.
    /// Returns `None` when the variable is unset or unrecognised.
    pub fn from_env() -> Option<Dispatch> {
        match std::env::var("GPES_TEST_DISPATCH").ok()?.as_str() {
            "serial" | "1" => Some(Dispatch::Serial),
            "auto" => Some(Dispatch::Auto),
            n => n.parse::<usize>().ok().map(Dispatch::Parallel),
        }
    }

    fn threads(self) -> usize {
        match self {
            Dispatch::Serial => 1,
            Dispatch::Parallel(n) => n.max(1),
            Dispatch::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16),
        }
    }
}

/// Per-draw statistics — the observable pipeline trace (experiment F1).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DrawStats {
    /// Vertex shader invocations.
    pub vertices_shaded: u32,
    /// Triangles assembled from the vertex stream.
    pub triangles_in: u32,
    /// Triangles that survived face/degeneracy/w-culling.
    pub triangles_rasterized: u32,
    /// Fragment shader invocations.
    pub fragments_shaded: u64,
    /// Fragments that executed `discard`.
    pub fragments_discarded: u64,
    /// Pixels written to the target after all per-fragment tests.
    pub pixels_written: u64,
    /// SPMD fragment batches dispatched (0 under the scalar executors —
    /// the CI gate asserts it is positive when [`ExecMode::Spmd`] ran).
    pub spmd_batches: u64,
    /// SPMD batches replayed lane-by-lane after a lane trap, plus bands
    /// that fell back to a scalar executor because the lowerer rejected
    /// the shader.
    pub scalar_fallbacks: u64,
    /// SPMD VM slots boxed into per-lane values by a type-changing
    /// masked write (see `gpes_glsl::spmd::SpmdVm::take_boxings`); each
    /// one sends the instructions touching that slot down the generic
    /// per-lane paths.
    pub spmd_boxed_slots: u64,
    /// Vertex-stage operation profile.
    pub vs_profile: OpProfile,
    /// Fragment-stage operation profile (drives the `gpes-perf` model).
    pub fs_profile: OpProfile,
}

/// A client-side attribute array (`glVertexAttribPointer` analog).
#[derive(Debug, Clone, PartialEq)]
pub struct AttribArray {
    /// Components per vertex (1–4).
    pub size: usize,
    /// Tightly packed floats, `size` per vertex.
    pub data: Vec<f32>,
}

/// Texture-unit bindings snapshot used during one draw call.
pub(crate) struct Bindings<'a> {
    /// Slot per unit; `None` samples as opaque black (incomplete texture).
    pub units: Vec<Option<&'a Texture>>,
}

impl TextureAccess for Bindings<'_> {
    fn sample(&self, unit: u32, coord: [f32; 2]) -> [f32; 4] {
        self.units
            .get(unit as usize)
            .and_then(|t| *t)
            .map(|t| t.sample(coord))
            .unwrap_or([0.0, 0.0, 0.0, 1.0])
    }
}

/// A shader stage instance behind the [`ExecMode`] selection: the SPMD
/// VM, the scalar bytecode VM or the tree-walking interpreter. All are
/// bit-identical in results and profile counts; the VMs additionally
/// offer pre-resolved slot stores for the per-fragment/per-vertex hot
/// path.
enum StageExec<'a> {
    Spmd(SpmdVm<'a>),
    Vm(Vm<'a>),
    Tree(Interpreter<'a>),
}

impl<'a> StageExec<'a> {
    /// Instantiates the stage executor for `shader`, honouring
    /// `config.exec_mode` (falling back to the tree-walker when the
    /// lowerer rejected the shader).
    fn for_fragment(
        program: &'a Program,
        bindings: &'a Bindings<'a>,
        config: &RasterConfig,
    ) -> Result<StageExec<'a>, GlError> {
        Self::new(
            program.fragment_executable(),
            &program.fragment,
            bindings,
            config,
            true,
        )
    }

    fn for_vertex(
        program: &'a Program,
        bindings: &'a Bindings<'a>,
        config: &RasterConfig,
    ) -> Result<StageExec<'a>, GlError> {
        Self::new(
            program.vertex_executable(),
            &program.vertex,
            bindings,
            config,
            false,
        )
    }

    fn new(
        exe: Option<&'a gpes_glsl::Executable>,
        shader: &'a gpes_glsl::CompiledShader,
        bindings: &'a Bindings<'a>,
        config: &RasterConfig,
        spmd_ok: bool,
    ) -> Result<StageExec<'a>, GlError> {
        // The vertex stage runs scalar even under Spmd: vertices feed
        // primitive assembly one at a time.
        let mode = match config.exec_mode {
            ExecMode::Spmd { .. } if !spmd_ok => ExecMode::Scalar,
            mode => mode,
        };
        let exec = match (mode, exe) {
            (ExecMode::Spmd { lanes }, Some(exe)) => {
                let mut vm = SpmdVm::with_model(exe, bindings, config.float_model, lanes as usize)?;
                vm.set_limits(config.exec_limits);
                StageExec::Spmd(vm)
            }
            (ExecMode::Scalar, Some(exe)) => {
                let mut vm = Vm::with_model(exe, bindings, config.float_model)?;
                vm.set_limits(config.exec_limits);
                StageExec::Vm(vm)
            }
            _ => {
                let mut interp = Interpreter::with_model(shader, bindings, config.float_model)?;
                interp.set_limits(config.exec_limits);
                StageExec::Tree(interp)
            }
        };
        Ok(exec)
    }

    /// Resolves a global to its slot (VMs) or a name marker
    /// (tree-walker). Returns `None` when the stage does not declare the
    /// global.
    fn resolve(&self, name: &str) -> Option<u32> {
        match self {
            StageExec::Spmd(vm) => vm.global_slot(name),
            StageExec::Vm(vm) => vm.global_slot(name),
            // The tree-walker addresses globals by name; use a dummy slot
            // value and remember resolvability.
            StageExec::Tree(interp) => interp.global(name).map(|_| u32::MAX),
        }
    }

    fn set_global(&mut self, name: &str, value: Value) -> Result<(), gpes_glsl::RuntimeError> {
        match self {
            StageExec::Spmd(vm) => vm.set_global(name, value),
            StageExec::Vm(vm) => vm.set_global(name, value),
            StageExec::Tree(interp) => interp.set_global(name, value),
        }
    }

    /// Fast store for a global pre-resolved with [`StageExec::resolve`];
    /// `name` is only consulted on the tree-walker path. On the SPMD VM
    /// this broadcasts to every lane — per-fragment inputs go through
    /// [`SpmdVm::set_lane_slot`] in the batched loops instead.
    fn set_resolved(&mut self, slot: u32, name: &str, value: Value) {
        match self {
            StageExec::Spmd(vm) => vm.set_slot_all(slot, value),
            StageExec::Vm(vm) => vm.set_slot(slot, value),
            StageExec::Tree(interp) => {
                let _ = interp.set_global(name, value);
            }
        }
    }

    fn global(&self, name: &str) -> Option<Value> {
        match self {
            StageExec::Spmd(vm) => vm.global(0, name),
            StageExec::Vm(vm) => vm.global(name).cloned(),
            StageExec::Tree(interp) => interp.global(name).cloned(),
        }
    }

    fn run_main(&mut self) -> Result<(), gpes_glsl::RuntimeError> {
        match self {
            // Single-lane batch == scalar execution; the batched raster
            // loops bypass this and call run_batch directly.
            StageExec::Spmd(vm) => vm.run_batch(1).map_err(|e| e.error),
            StageExec::Vm(vm) => vm.run_main(),
            StageExec::Tree(interp) => interp.run_main(),
        }
    }

    fn discarded(&self) -> bool {
        match self {
            StageExec::Spmd(vm) => vm.discarded(0),
            StageExec::Vm(vm) => vm.discarded(),
            StageExec::Tree(interp) => interp.discarded(),
        }
    }

    fn frag_color(&self) -> Option<[f32; 4]> {
        match self {
            StageExec::Spmd(vm) => vm.frag_color(0),
            StageExec::Vm(vm) => vm.frag_color(),
            StageExec::Tree(interp) => interp.frag_color(),
        }
    }

    fn take_profile(&mut self) -> OpProfile {
        match self {
            StageExec::Spmd(vm) => vm.take_profile(),
            StageExec::Vm(vm) => vm.take_profile(),
            StageExec::Tree(interp) => interp.take_profile(),
        }
    }
}

/// Pixel storage of a render target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum PixelStore {
    /// 4 bytes: eq. (2) clamp + byte conversion (core ES 2).
    #[default]
    Rgba8,
    /// 8 bytes: four binary16 floats, unclamped
    /// (`EXT_color_buffer_half_float`).
    RgbaF16,
}

impl PixelStore {
    pub(crate) fn bytes_per_pixel(self) -> usize {
        match self {
            PixelStore::Rgba8 => 4,
            PixelStore::RgbaF16 => 8,
        }
    }
}

/// Mutable view of the render target for one draw call.
pub(crate) struct TargetImage<'a> {
    pub width: u32,
    pub height: u32,
    /// Pixel bytes, row 0 at the bottom; layout per [`PixelStore`].
    pub color: &'a mut [u8],
    pub depth: Option<&'a mut [f32]>,
    pub pixel: PixelStore,
}

/// Fixed-function state for one draw call.
pub(crate) struct RasterConfig {
    pub viewport: (i32, i32, i32, i32),
    pub scissor: Option<(i32, i32, i32, i32)>,
    pub store_rounding: StoreRounding,
    pub float_model: FloatModel,
    pub dispatch: Dispatch,
    pub depth_test: bool,
    pub exec_limits: ExecLimits,
    pub exec_mode: ExecMode,
}

struct VaryingLayout {
    names: Vec<(String, Type, usize)>, // name, type, component count
    total: usize,
}

struct ShadedVertex {
    clip: [f32; 4],
    varyings: Vec<f32>,
    point_size: f32,
}

/// Executes a complete draw call.
#[allow(clippy::too_many_arguments)] // mirrors the GL draw-call surface
pub(crate) fn draw(
    program: &Program,
    attribs: &HashMap<String, AttribArray>,
    mode: PrimitiveMode,
    first: usize,
    count: usize,
    bindings: &Bindings<'_>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
) -> Result<DrawStats, GlError> {
    let mut stats = DrawStats::default();
    if count == 0 {
        return Ok(stats);
    }
    if mode == PrimitiveMode::Triangles && !count.is_multiple_of(3) {
        return Err(GlError::invalid_value(
            "GL_TRIANGLES draw count must be a multiple of 3",
        ));
    }
    if mode != PrimitiveMode::Points && count < 3 {
        return Err(GlError::invalid_value(
            "triangle draws need at least 3 vertices",
        ));
    }

    let layout = varying_layout(program);
    if layout.total > MAX_VARYING_COMPONENTS {
        return Err(GlError::invalid_op(format!(
            "{} varying components exceed the rasteriser's fixed budget of {MAX_VARYING_COMPONENTS}",
            layout.total
        )));
    }

    // ---- vertex stage ----------------------------------------------------
    let mut vs = StageExec::for_vertex(program, bindings, config)?;
    apply_uniforms(&mut vs, program);
    // Pre-resolve attribute slots so the per-vertex loop stores without
    // name lookups (this is the hot path of §III-1 vertex-stage compute).
    let attr_slots: Vec<u32> = program
        .attributes()
        .iter()
        .map(|(name, _)| {
            vs.resolve(name).ok_or_else(|| {
                GlError::invalid_op(format!("vertex shader lost attribute `{name}`"))
            })
        })
        .collect::<Result<_, _>>()?;

    let mut shaded: Vec<ShadedVertex> = Vec::with_capacity(count);
    for vi in first..first + count {
        for ((name, ty), slot) in program.attributes().iter().zip(&attr_slots) {
            let arr = attribs.get(name).ok_or_else(|| {
                GlError::invalid_op(format!("no attribute array bound for `{name}`"))
            })?;
            let value = attribute_value(arr, vi, ty)?;
            vs.set_resolved(*slot, name, value);
        }
        vs.run_main()?;
        let clip = vs
            .global("gl_Position")
            .and_then(|v| v.as_vec4())
            .ok_or_else(|| GlError::invalid_op("vertex shader did not produce gl_Position"))?;
        let mut varyings = Vec::with_capacity(layout.total);
        for (name, _, len) in &layout.names {
            let v = vs.global(name).ok_or_else(|| {
                GlError::invalid_op(format!("vertex shader lost varying `{name}`"))
            })?;
            let comps = v.float_components().ok_or_else(|| {
                GlError::invalid_op(format!("varying `{name}` is not float-based"))
            })?;
            debug_assert_eq!(comps.len(), *len);
            varyings.extend_from_slice(&comps);
        }
        let point_size = vs
            .global("gl_PointSize")
            .and_then(|v| match v {
                Value::Float(f) => Some(f),
                _ => None,
            })
            .unwrap_or(1.0);
        shaded.push(ShadedVertex {
            clip,
            varyings,
            point_size,
        });
        stats.vertices_shaded += 1;
    }
    stats.vs_profile = vs.take_profile();

    if mode == PrimitiveMode::Points {
        raster_points(
            program, &shaded, &layout, bindings, target, config, &mut stats,
        )?;
        return Ok(stats);
    }

    // ---- primitive assembly ----------------------------------------------
    let tris = assemble(mode, count);
    stats.triangles_in = tris.len() as u32;

    // ---- triangle setup ----------------------------------------------------
    let clip = clip_rect(config, target.width, target.height);
    let setups: Vec<TriangleSetup> = tris
        .iter()
        .filter_map(|t| {
            let verts = [&shaded[t[0]], &shaded[t[1]], &shaded[t[2]]];
            setup_triangle(verts, config.viewport, clip)
        })
        .collect();
    stats.triangles_rasterized = setups.len() as u32;

    // ---- rasterisation + fragment stage -----------------------------------
    raster_triangles(
        program, &setups, &layout, bindings, target, config, &mut stats,
    )?;
    Ok(stats)
}

fn varying_layout(program: &Program) -> VaryingLayout {
    let mut names = Vec::new();
    let mut total = 0;
    for (name, ty) in program.varyings() {
        let len = ty.component_count().unwrap_or(0);
        total += len;
        names.push((name.clone(), ty.clone(), len));
    }
    VaryingLayout { names, total }
}

fn apply_uniforms(exec: &mut StageExec<'_>, program: &Program) {
    for (name, value) in program.uniform_values() {
        // A uniform may be declared in only one of the two stages; ignore
        // the stage that does not know the name.
        let _ = exec.set_global(name, value.clone());
    }
}

/// Builds the attribute value for vertex `vi`, padding missing components
/// with (0, 0, 0, 1) as GL does.
fn attribute_value(arr: &AttribArray, vi: usize, ty: &Type) -> Result<Value, GlError> {
    if !(1..=4).contains(&arr.size) {
        return Err(GlError::invalid_value("attribute size must be 1..=4"));
    }
    let start = vi * arr.size;
    if start + arr.size > arr.data.len() {
        return Err(GlError::invalid_value(format!(
            "attribute array too short for vertex {vi}"
        )));
    }
    let supplied = &arr.data[start..start + arr.size];
    let mut full = [0.0f32, 0.0, 0.0, 1.0];
    full[..supplied.len()].copy_from_slice(supplied);
    match ty {
        Type::Float => Ok(Value::Float(full[0])),
        Type::Vec2 => Ok(Value::Vec2([full[0], full[1]])),
        Type::Vec3 => Ok(Value::Vec3([full[0], full[1], full[2]])),
        Type::Vec4 => Ok(Value::Vec4(full)),
        other => Err(GlError::invalid_op(format!(
            "attribute type {other} is not supported by this subset"
        ))),
    }
}

fn assemble(mode: PrimitiveMode, count: usize) -> Vec<[usize; 3]> {
    match mode {
        // Points never reach assembly (dedicated raster path).
        PrimitiveMode::Points => Vec::new(),
        PrimitiveMode::Triangles => (0..count / 3)
            .map(|t| [3 * t, 3 * t + 1, 3 * t + 2])
            .collect(),
        PrimitiveMode::TriangleStrip => (0..count.saturating_sub(2))
            .map(|i| {
                if i % 2 == 0 {
                    [i, i + 1, i + 2]
                } else {
                    [i + 1, i, i + 2]
                }
            })
            .collect(),
        PrimitiveMode::TriangleFan => (0..count.saturating_sub(2))
            .map(|i| [0, i + 1, i + 2])
            .collect(),
    }
}

fn edge(ax: f64, ay: f64, bx: f64, by: f64, px: f64, py: f64) -> f64 {
    (bx - ax) * (py - ay) - (by - ay) * (px - ax)
}

/// Top-left fill rule: a pixel centre exactly on an edge belongs to the
/// triangle iff the (CCW-directed) edge points "up", or is horizontal and
/// points "left". Opposite-direction shared edges therefore claim each
/// boundary pixel exactly once.
fn accepts_zero_edge(ax: f64, ay: f64, bx: f64, by: f64) -> bool {
    let dy = by - ay;
    let dx = bx - ax;
    dy > 0.0 || (dy == 0.0 && dx < 0.0)
}

/// Screen-space setup of one triangle, computed once per draw and shared
/// read-only by every band.
struct TriangleSetup {
    /// Vertex positions, reordered counter-clockwise.
    sx: [f64; 3],
    sy: [f64; 3],
    /// Twice the signed area (positive after the reorder).
    area: f64,
    /// Whether each edge (AB, BC, CA) owns pixel centres lying on it.
    top_left: [bool; 3],
    inv_w: [f32; 3],
    z_ndc: [f32; 3],
    /// Varying components pre-divided by clip w (for perspective-correct
    /// interpolation). Fixed-size: no allocation per triangle.
    var_over_w: [[f32; MAX_VARYING_COMPONENTS]; 3],
    front_facing: bool,
    /// Bounding box clipped to [`clip_rect`], half-open and non-empty.
    x0: i32,
    x1: i32,
    y0: i32,
    y1: i32,
}

impl TriangleSetup {
    /// Edge weights `[w_bc, w_ca, w_ab]` (for vertices A, B, C) at pixel
    /// centre `(pxc, pyc)`, or `None` when the top-left fill rule leaves
    /// the centre outside.
    fn weights(&self, pxc: f64, pyc: f64) -> Option<[f64; 3]> {
        let [ax, bx, cx] = self.sx;
        let [ay, by, cy] = self.sy;
        let w_ab = edge(ax, ay, bx, by, pxc, pyc);
        let w_bc = edge(bx, by, cx, cy, pxc, pyc);
        let w_ca = edge(cx, cy, ax, ay, pxc, pyc);
        let [tl_ab, tl_bc, tl_ca] = self.top_left;
        let inside = (w_ab > 0.0 || (w_ab == 0.0 && tl_ab))
            && (w_bc > 0.0 || (w_bc == 0.0 && tl_bc))
            && (w_ca > 0.0 || (w_ca == 0.0 && tl_ca));
        inside.then_some([w_bc, w_ca, w_ab])
    }
}

/// The pixels fragments may land on — viewport ∩ target ∩ scissor — as
/// half-open `(x0, y0, x1, y1)`.
fn clip_rect(config: &RasterConfig, width: u32, height: u32) -> (i32, i32, i32, i32) {
    let (vx, vy, vw, vh) = config.viewport;
    let rect = (
        vx.max(0),
        vy.max(0),
        (vx + vw).min(width as i32),
        (vy + vh).min(height as i32),
    );
    match config.scissor {
        Some((sx, sy, sw, sh)) => (
            rect.0.max(sx),
            rect.1.max(sy),
            rect.2.min(sx + sw),
            rect.3.min(sy + sh),
        ),
        None => rect,
    }
}

/// Maps one assembled triangle to screen space. `None` when it covers no
/// pixel of `clip`: behind the eye (no clipping in this subset),
/// degenerate, or outside the clip rectangle.
fn setup_triangle(
    verts: [&ShadedVertex; 3],
    viewport: (i32, i32, i32, i32),
    clip: (i32, i32, i32, i32),
) -> Option<TriangleSetup> {
    if verts.iter().any(|v| v.clip[3] <= 0.0) {
        return None;
    }
    let (vx, vy, vw, vh) = viewport;
    let mut sx = [0.0f64; 3];
    let mut sy = [0.0f64; 3];
    let mut inv_w = [0.0f32; 3];
    let mut z_ndc = [0.0f32; 3];
    for k in 0..3 {
        let w = verts[k].clip[3];
        let ndc_x = verts[k].clip[0] / w;
        let ndc_y = verts[k].clip[1] / w;
        z_ndc[k] = verts[k].clip[2] / w;
        sx[k] = vx as f64 + (ndc_x as f64 + 1.0) * 0.5 * vw as f64;
        sy[k] = vy as f64 + (ndc_y as f64 + 1.0) * 0.5 * vh as f64;
        inv_w[k] = 1.0 / w;
    }
    let area = edge(sx[0], sy[0], sx[1], sy[1], sx[2], sy[2]);
    if area == 0.0 {
        return None;
    }
    // Reorder to counter-clockwise so all edge functions are positive
    // inside; remember the original facing for gl_FrontFacing.
    let front_facing = area > 0.0;
    let o = if front_facing { [0, 1, 2] } else { [0, 2, 1] };
    let (sx, sy) = (
        [sx[o[0]], sx[o[1]], sx[o[2]]],
        [sy[o[0]], sy[o[1]], sy[o[2]]],
    );

    let (clip_x0, clip_y0, clip_x1, clip_y1) = clip;
    let min = |v: [f64; 3]| v.into_iter().fold(f64::INFINITY, f64::min);
    let max = |v: [f64; 3]| v.into_iter().fold(f64::NEG_INFINITY, f64::max);
    let x0 = (min(sx).floor() as i32).max(clip_x0);
    let x1 = (max(sx).ceil() as i32).min(clip_x1);
    let y0 = (min(sy).floor() as i32).max(clip_y0);
    let y1 = (max(sy).ceil() as i32).min(clip_y1);
    if x0 >= x1 || y0 >= y1 {
        return None;
    }
    Some(TriangleSetup {
        sx,
        sy,
        area: edge(sx[0], sy[0], sx[1], sy[1], sx[2], sy[2]),
        top_left: [
            accepts_zero_edge(sx[0], sy[0], sx[1], sy[1]),
            accepts_zero_edge(sx[1], sy[1], sx[2], sy[2]),
            accepts_zero_edge(sx[2], sy[2], sx[0], sy[0]),
        ],
        inv_w: [inv_w[o[0]], inv_w[o[1]], inv_w[o[2]]],
        z_ndc: [z_ndc[o[0]], z_ndc[o[1]], z_ndc[o[2]]],
        var_over_w: [
            premultiply(&verts[o[0]].varyings, inv_w[o[0]]),
            premultiply(&verts[o[1]].varyings, inv_w[o[1]]),
            premultiply(&verts[o[2]].varyings, inv_w[o[2]]),
        ],
        front_facing,
        x0,
        x1,
        y0,
        y1,
    })
}

/// Splits rows `y0..y1` into `bands` contiguous row ranges whose sizes
/// differ by at most one row (fewer bands when there are fewer rows).
fn split_rows(y0: i32, y1: i32, bands: usize) -> Vec<(i32, i32)> {
    let rows = (y1 - y0).max(0) as usize;
    let n = bands.min(rows).max(1);
    (0..n)
        .map(|i| {
            let lo = y0 + (rows * i / n) as i32;
            let hi = y0 + (rows * (i + 1) / n) as i32;
            (lo, hi)
        })
        .collect()
}

#[derive(Default, Clone, Copy)]
struct BandStats {
    shaded: u64,
    discarded: u64,
    written: u64,
    spmd_batches: u64,
    scalar_fallbacks: u64,
    spmd_boxed_slots: u64,
    profile: OpProfile,
}

impl BandStats {
    fn add_to(&self, stats: &mut DrawStats) {
        stats.fragments_shaded += self.shaded;
        stats.fragments_discarded += self.discarded;
        stats.pixels_written += self.written;
        stats.spmd_batches += self.spmd_batches;
        stats.scalar_fallbacks += self.scalar_fallbacks;
        stats.spmd_boxed_slots += self.spmd_boxed_slots;
        stats.fs_profile.merge(&self.profile);
    }
}

/// A band's first error, tagged with the index of the triangle that
/// raised it (0 for failures before any triangle ran).
type BandError = (usize, GlError);

/// Rasterises every triangle of a draw. The rows the triangles cover are
/// split into one band per dispatch thread; each band runs all triangles
/// over its own rows, in draw order, on one fragment executor. The
/// calling thread runs the first band and scoped threads the rest.
///
/// Bands are disjoint row ranges, so each pixel still sees the draw's
/// triangles in order, and depth tests and stores behave exactly as a
/// serial walk. Splitting the whole draw keeps the bands balanced: a
/// half-quad triangle puts 3/4 of its fragments in the wide half of its
/// rows, so banding each triangle alone would cap two threads at
/// 1/0.75 = 1.33x.
///
/// The error returned is the one a serial walk would hit first: the
/// lowest-indexed triangle's, and within it the lowest band's.
fn raster_triangles(
    program: &Program,
    setups: &[TriangleSetup],
    layout: &VaryingLayout,
    bindings: &Bindings<'_>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
    stats: &mut DrawStats,
) -> Result<(), GlError> {
    let (Some(y0), Some(y1)) = (
        setups.iter().map(|s| s.y0).min(),
        setups.iter().map(|s| s.y1).max(),
    ) else {
        return Ok(());
    };
    let bands = split_rows(y0, y1, config.dispatch.threads());
    let width = target.width as usize;
    let pixel = target.pixel;
    let row_bytes = width * pixel.bytes_per_pixel();

    // Carve the colour (and depth) rows y0..y1 into per-band slices.
    let mut color_rest: &mut [u8] = &mut target.color[y0 as usize * row_bytes..];
    let mut depth_rest = target
        .depth
        .as_deref_mut()
        .map(|d| &mut d[y0 as usize * width..]);
    let mut jobs = Vec::with_capacity(bands.len());
    for &(by0, by1) in &bands {
        let rows = (by1 - by0) as usize;
        let (color, rest) = std::mem::take(&mut color_rest).split_at_mut(rows * row_bytes);
        color_rest = rest;
        let depth = depth_rest.take().map(|d| {
            let (band, rest) = d.split_at_mut(rows * width);
            depth_rest = Some(rest);
            band
        });
        jobs.push((by0, by1, color, depth));
    }

    let run = |(by0, by1, color, depth)| {
        raster_band(
            program, layout, setups, bindings, config, width, by0, by1, color, depth, pixel,
        )
    };
    let results: Vec<Result<BandStats, BandError>> = std::thread::scope(|scope| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("split_rows yields at least one band");
        let workers: Vec<_> = jobs.map(|job| scope.spawn(move || run(job))).collect();
        let mut results = Vec::with_capacity(bands.len());
        results.push(run(first));
        results.extend(
            workers
                .into_iter()
                .map(|h| h.join().expect("raster worker panicked")),
        );
        results
    });

    let mut first_error: Option<BandError> = None;
    for result in results {
        match result {
            Ok(band) => band.add_to(stats),
            Err((tri, e)) => {
                if first_error.as_ref().is_none_or(|(first, _)| tri < *first) {
                    first_error = Some((tri, e));
                }
            }
        }
    }
    match first_error {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

/// Pre-divides varying components by clip `w` into a fixed-size buffer
/// (was a fresh `Vec<f32>` per vertex per triangle).
fn premultiply(comps: &[f32], inv_w: f32) -> [f32; MAX_VARYING_COMPONENTS] {
    let mut out = [0.0f32; MAX_VARYING_COMPONENTS];
    for (slot, &c) in out.iter_mut().zip(comps) {
        *slot = c * inv_w;
    }
    out
}

/// Writes one fragment colour into the target according to its pixel
/// store (eq. (2) byte conversion, or raw halves for float targets).
fn store_pixel(
    color: &mut [u8],
    pixel_index: usize,
    pixel: PixelStore,
    rgba: [f32; 4],
    rounding: StoreRounding,
) {
    match pixel {
        PixelStore::Rgba8 => {
            let byte_off = pixel_index * 4;
            for (i, &c) in rgba.iter().enumerate() {
                color[byte_off + i] = float_to_texel(c, rounding);
            }
        }
        PixelStore::RgbaF16 => {
            let byte_off = pixel_index * 8;
            for (i, &c) in rgba.iter().enumerate() {
                let bits = crate::half::f32_to_f16_bits(c).to_le_bytes();
                color[byte_off + 2 * i] = bits[0];
                color[byte_off + 2 * i + 1] = bits[1];
            }
        }
    }
}

/// Dispatches one SPMD fragment batch and retires its lanes in lane
/// order: deferred depth writes, colour stores and stat counting happen
/// here. Lane order equals fragment acceptance order and batched pixels
/// are unique, so retiring at flush time is indistinguishable from the
/// scalar loop's write-as-you-shade. On a lane trap the lanes below the
/// erroring lane (which the replay completed with exact scalar outputs)
/// are still retired before the error propagates — exactly the pixels a
/// scalar walk would have written before trapping.
#[allow(clippy::too_many_arguments)]
fn flush_spmd_batch(
    vm: &mut SpmdVm<'_>,
    n: usize,
    pixel_indices: &[usize; MAX_LANES],
    frag_zs: &[f32; MAX_LANES],
    config: &RasterConfig,
    color: &mut [u8],
    depth: &mut Option<&mut [f32]>,
    pixel: PixelStore,
    band: &mut BandStats,
) -> Result<(), GlError> {
    let result = vm.run_batch(n);
    band.spmd_batches += 1;
    band.scalar_fallbacks += vm.take_replays();
    band.spmd_boxed_slots += vm.take_boxings();
    let retired = match &result {
        Ok(()) => n,
        Err(e) => e.lane,
    };
    for lane in 0..retired {
        band.shaded += 1;
        if vm.discarded(lane) {
            band.discarded += 1;
            continue;
        }
        let rgba = vm.frag_color(lane).ok_or(GlError::ShaderTrap(
            gpes_glsl::RuntimeError::MissingOutput {
                name: "gl_FragColor",
            },
        ))?;
        if config.depth_test {
            if let Some(depth_buf) = depth.as_deref_mut() {
                depth_buf[pixel_indices[lane]] = frag_zs[lane];
            }
        }
        store_pixel(
            color,
            pixel_indices[lane],
            pixel,
            rgba,
            config.store_rounding,
        );
        band.written += 1;
    }
    match result {
        Ok(()) => Ok(()),
        Err(e) => Err(GlError::ShaderTrap(e.error)),
    }
}

/// Builds a band's fragment executor with the uniforms applied, and
/// pre-resolves its per-fragment inputs (each varying, then
/// `gl_FragCoord`) so the inner loops store through plain slot indices.
/// A shader the SPMD lowerer rejected counts one scalar fallback.
fn fragment_stage<'a>(
    program: &'a Program,
    bindings: &'a Bindings<'a>,
    config: &RasterConfig,
    layout: &VaryingLayout,
    band: &mut BandStats,
) -> Result<(StageExec<'a>, Vec<u32>, u32), GlError> {
    let mut fs = StageExec::for_fragment(program, bindings, config)?;
    if matches!(config.exec_mode, ExecMode::Spmd { .. }) && !matches!(fs, StageExec::Spmd(_)) {
        band.scalar_fallbacks += 1;
    }
    apply_uniforms(&mut fs, program);
    let varying_slots = layout
        .names
        .iter()
        .map(|(name, _, _)| {
            fs.resolve(name).ok_or_else(|| {
                GlError::invalid_op(format!("fragment shader lost varying `{name}`"))
            })
        })
        .collect::<Result<_, _>>()?;
    let fragcoord_slot = fs
        .resolve("gl_FragCoord")
        .ok_or_else(|| GlError::invalid_op("fragment shader lost gl_FragCoord"))?;
    Ok((fs, varying_slots, fragcoord_slot))
}

/// Rasterises every shaded vertex as a point sprite (serial dispatch —
/// point counts in GPGPU scatter passes equal the output size, and each
/// point touches few pixels). Varyings pass through uninterpolated, per
/// the GL point rasterisation rules.
fn raster_points(
    program: &Program,
    shaded: &[ShadedVertex],
    layout: &VaryingLayout,
    bindings: &Bindings<'_>,
    target: &mut TargetImage<'_>,
    config: &RasterConfig,
    stats: &mut DrawStats,
) -> Result<(), GlError> {
    let mut band = BandStats::default();
    let (mut fs, varying_slots, fragcoord_slot) =
        fragment_stage(program, bindings, config, layout, &mut band)?;
    let _ = fs.set_global("gl_FrontFacing", Value::Bool(true));
    // A batch may only span points when no depth buffer is observable:
    // two points can cover the same pixel, and the second must see the
    // first's depth write. Pixels within one point are unique.
    let flush_per_point = config.depth_test && target.depth.is_some();
    let mut batch_n = 0usize;
    let mut batch_pixel = [0usize; MAX_LANES];
    let mut batch_z = [0.0f32; MAX_LANES];

    let (vx, vy, vw, vh) = config.viewport;
    let (clip_lo_x, clip_lo_y, clip_hi_x, clip_hi_y) =
        clip_rect(config, target.width, target.height);
    let width = target.width as usize;

    for v in shaded {
        let w = v.clip[3];
        if w <= 0.0 {
            continue;
        }
        let sx = vx as f64 + (v.clip[0] as f64 / w as f64 + 1.0) * 0.5 * vw as f64;
        let sy = vy as f64 + (v.clip[1] as f64 / w as f64 + 1.0) * 0.5 * vh as f64;
        let z_ndc = v.clip[2] / w;
        let frag_z = (z_ndc * 0.5 + 0.5).clamp(0.0, 1.0);
        let half = (v.point_size.max(1.0) as f64) / 2.0;

        // Covered pixels: centres inside the point square.
        let x0 = ((sx - half - 0.5).ceil() as i32).max(clip_lo_x);
        let x1 = ((sx + half - 0.5).floor() as i32 + 1).min(clip_hi_x);
        let y0 = ((sy - half - 0.5).ceil() as i32).max(clip_lo_y);
        let y1 = ((sy + half - 0.5).floor() as i32 + 1).min(clip_hi_y);

        // Pass-through varyings (no interpolation for points). Under SPMD
        // these are staged per lane at push time — a broadcast here would
        // clobber lanes still pending from a previous point.
        let mut point_varyings: Vec<Value> = Vec::new();
        {
            let mut offset = 0usize;
            for ((name, ty, len), slot) in layout.names.iter().zip(&varying_slots) {
                let comps = &v.varyings[offset..offset + len];
                offset += len;
                let value = rebuild_varying(ty, comps);
                if matches!(fs, StageExec::Spmd(_)) {
                    point_varyings.push(value);
                } else {
                    fs.set_resolved(*slot, name, value);
                }
            }
        }

        for py in y0..y1 {
            for px in x0..x1 {
                let pixel_index = py as usize * width + px as usize;
                if config.depth_test {
                    if let Some(depth_buf) = target.depth.as_deref_mut() {
                        if frag_z >= depth_buf[pixel_index] {
                            continue;
                        }
                    }
                }
                let fragcoord = Value::Vec4([px as f32 + 0.5, py as f32 + 0.5, frag_z, 1.0 / w]);
                if let StageExec::Spmd(vm) = &mut fs {
                    let lane = batch_n;
                    for (slot, value) in varying_slots.iter().zip(&point_varyings) {
                        vm.set_lane_slot(lane, *slot, value.clone());
                    }
                    vm.set_lane_slot(lane, fragcoord_slot, fragcoord);
                    batch_pixel[lane] = pixel_index;
                    batch_z[lane] = frag_z;
                    batch_n += 1;
                    if batch_n == vm.lanes() {
                        flush_spmd_batch(
                            vm,
                            batch_n,
                            &batch_pixel,
                            &batch_z,
                            config,
                            target.color,
                            &mut target.depth,
                            target.pixel,
                            &mut band,
                        )?;
                        batch_n = 0;
                    }
                    continue;
                }
                fs.set_resolved(fragcoord_slot, "gl_FragCoord", fragcoord);
                fs.run_main()?;
                band.shaded += 1;
                if fs.discarded() {
                    band.discarded += 1;
                    continue;
                }
                let rgba = fs.frag_color().ok_or(GlError::ShaderTrap(
                    gpes_glsl::RuntimeError::MissingOutput {
                        name: "gl_FragColor",
                    },
                ))?;
                if config.depth_test {
                    if let Some(depth_buf) = target.depth.as_deref_mut() {
                        depth_buf[pixel_index] = frag_z;
                    }
                }
                store_pixel(
                    target.color,
                    pixel_index,
                    target.pixel,
                    rgba,
                    config.store_rounding,
                );
                band.written += 1;
            }
        }

        // With a depth buffer active a later point may cover one of this
        // point's pixels, so its writes must land before the next point.
        if flush_per_point && batch_n > 0 {
            if let StageExec::Spmd(vm) = &mut fs {
                flush_spmd_batch(
                    vm,
                    batch_n,
                    &batch_pixel,
                    &batch_z,
                    config,
                    target.color,
                    &mut target.depth,
                    target.pixel,
                    &mut band,
                )?;
                batch_n = 0;
            }
        }
    }
    if batch_n > 0 {
        if let StageExec::Spmd(vm) = &mut fs {
            flush_spmd_batch(
                vm,
                batch_n,
                &batch_pixel,
                &batch_z,
                config,
                target.color,
                &mut target.depth,
                target.pixel,
                &mut band,
            )?;
        }
    }
    band.profile = fs.take_profile();
    band.add_to(stats);
    Ok(())
}

/// Rasterises target rows `y0..y1` of every triangle, in draw order,
/// into a band buffer whose first row is target row `y0`.
#[allow(clippy::too_many_arguments)]
fn raster_band(
    program: &Program,
    layout: &VaryingLayout,
    setups: &[TriangleSetup],
    bindings: &Bindings<'_>,
    config: &RasterConfig,
    width: usize,
    y0: i32,
    y1: i32,
    color: &mut [u8],
    mut depth: Option<&mut [f32]>,
    pixel: PixelStore,
) -> Result<BandStats, BandError> {
    let mut band = BandStats::default();
    let (mut fs, varying_slots, fragcoord_slot) =
        fragment_stage(program, bindings, config, layout, &mut band).map_err(|e| (0, e))?;

    for (tri, setup) in setups.iter().enumerate() {
        let rows = (setup.y0.max(y0), setup.y1.min(y1));
        if rows.0 >= rows.1 {
            continue;
        }
        let _ = fs.set_global("gl_FrontFacing", Value::Bool(setup.front_facing));
        raster_band_triangle(
            &mut fs,
            layout,
            setup,
            &varying_slots,
            fragcoord_slot,
            config,
            width,
            rows,
            y0,
            color,
            &mut depth,
            pixel,
            &mut band,
        )
        .map_err(|e| (tri, e))?;
    }
    band.profile = fs.take_profile();
    Ok(band)
}

/// Shades one triangle's fragments in target rows `rows.0..rows.1` of a
/// band whose first row is target row `band_base`.
#[allow(clippy::too_many_arguments)]
fn raster_band_triangle(
    fs: &mut StageExec<'_>,
    layout: &VaryingLayout,
    setup: &TriangleSetup,
    varying_slots: &[u32],
    fragcoord_slot: u32,
    config: &RasterConfig,
    width: usize,
    rows: (i32, i32),
    band_base: i32,
    color: &mut [u8],
    depth: &mut Option<&mut [f32]>,
    pixel: PixelStore,
    band: &mut BandStats,
) -> Result<(), GlError> {
    let mut comps = [0.0f32; MAX_VARYING_COMPONENTS];
    // SPMD batch state: accepted fragments become lanes; their deferred
    // depth/colour destinations retire at flush (a triangle's pixels are
    // unique, so deferral is invisible). A batch never spans triangles —
    // a later triangle's depth test must see this one's writes — nor
    // bands, which own disjoint rows.
    let mut batch_n = 0usize;
    let mut batch_pixel = [0usize; MAX_LANES];
    let mut batch_z = [0.0f32; MAX_LANES];

    for py in rows.0..rows.1 {
        let pyc = py as f64 + 0.5;
        for px in setup.x0..setup.x1 {
            let pxc = px as f64 + 0.5;
            let Some([w_bc, w_ca, w_ab]) = setup.weights(pxc, pyc) else {
                continue;
            };
            let la = (w_bc / setup.area) as f32;
            let lb = (w_ca / setup.area) as f32;
            let lc = (w_ab / setup.area) as f32;

            // Perspective-correct interpolation.
            let denom = la * setup.inv_w[0] + lb * setup.inv_w[1] + lc * setup.inv_w[2];
            let z = la * setup.z_ndc[0] + lb * setup.z_ndc[1] + lc * setup.z_ndc[2];
            let frag_z = (z * 0.5 + 0.5).clamp(0.0, 1.0);

            let pixel_index = (py - band_base) as usize * width + px as usize;
            if config.depth_test {
                if let Some(depth_buf) = depth.as_deref_mut() {
                    if frag_z >= depth_buf[pixel_index] {
                        continue;
                    }
                }
            }

            // Interpolate varyings into the fixed buffer, then store each
            // rebuilt value through its pre-resolved slot.
            for (idx, slot) in comps[..layout.total].iter_mut().enumerate() {
                let num = la * setup.var_over_w[0][idx]
                    + lb * setup.var_over_w[1][idx]
                    + lc * setup.var_over_w[2][idx];
                *slot = num / denom;
            }
            if let StageExec::Spmd(vm) = fs {
                let mut offset = 0usize;
                for ((_, ty, len), slot) in layout.names.iter().zip(varying_slots) {
                    let value = rebuild_varying(ty, &comps[offset..offset + len]);
                    offset += len;
                    vm.set_lane_slot(batch_n, *slot, value);
                }
                vm.set_lane_slot(
                    batch_n,
                    fragcoord_slot,
                    Value::Vec4([pxc as f32, pyc as f32, frag_z, denom]),
                );
                batch_pixel[batch_n] = pixel_index;
                batch_z[batch_n] = frag_z;
                batch_n += 1;
                if batch_n == vm.lanes() {
                    flush_spmd_batch(
                        vm,
                        batch_n,
                        &batch_pixel,
                        &batch_z,
                        config,
                        color,
                        depth,
                        pixel,
                        band,
                    )?;
                    batch_n = 0;
                }
                continue;
            }

            let mut offset = 0usize;
            for ((name, ty, len), slot) in layout.names.iter().zip(varying_slots) {
                let value = rebuild_varying(ty, &comps[offset..offset + len]);
                offset += len;
                fs.set_resolved(*slot, name, value);
            }
            fs.set_resolved(
                fragcoord_slot,
                "gl_FragCoord",
                Value::Vec4([pxc as f32, pyc as f32, frag_z, denom]),
            );

            fs.run_main()?;
            band.shaded += 1;
            if fs.discarded() {
                band.discarded += 1;
                continue;
            }
            let rgba = fs.frag_color().ok_or(GlError::ShaderTrap(
                gpes_glsl::RuntimeError::MissingOutput {
                    name: "gl_FragColor",
                },
            ))?;

            if config.depth_test {
                if let Some(depth_buf) = depth.as_deref_mut() {
                    depth_buf[pixel_index] = frag_z;
                }
            }
            store_pixel(color, pixel_index, pixel, rgba, config.store_rounding);
            band.written += 1;
        }
    }
    // Partial tail: fragments left over when the triangle's rows end
    // before filling a full batch.
    if let StageExec::Spmd(vm) = fs {
        if batch_n > 0 {
            flush_spmd_batch(
                vm,
                batch_n,
                &batch_pixel,
                &batch_z,
                config,
                color,
                depth,
                pixel,
                band,
            )?;
        }
    }
    Ok(())
}

fn rebuild_varying(ty: &Type, comps: &[f32]) -> Value {
    match ty {
        Type::Float => Value::Float(comps[0]),
        Type::Vec2 => Value::Vec2([comps[0], comps[1]]),
        Type::Vec3 => Value::Vec3([comps[0], comps[1], comps[2]]),
        Type::Vec4 => Value::Vec4([comps[0], comps[1], comps[2], comps[3]]),
        Type::Mat2 => Value::Mat2([[comps[0], comps[1]], [comps[2], comps[3]]]),
        Type::Mat3 => Value::Mat3([
            [comps[0], comps[1], comps[2]],
            [comps[3], comps[4], comps[5]],
            [comps[6], comps[7], comps[8]],
        ]),
        Type::Mat4 => Value::Mat4([
            [comps[0], comps[1], comps[2], comps[3]],
            [comps[4], comps[5], comps[6], comps[7]],
            [comps[8], comps[9], comps[10], comps[11]],
            [comps[12], comps[13], comps[14], comps[15]],
        ]),
        other => unreachable!("varying of type {other} should have been rejected"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_triangles() {
        assert_eq!(
            assemble(PrimitiveMode::Triangles, 6),
            vec![[0, 1, 2], [3, 4, 5]]
        );
    }

    #[test]
    fn assemble_strip_alternates_winding() {
        assert_eq!(
            assemble(PrimitiveMode::TriangleStrip, 5),
            vec![[0, 1, 2], [2, 1, 3], [2, 3, 4]]
        );
    }

    #[test]
    fn assemble_fan_pivots_on_zero() {
        assert_eq!(
            assemble(PrimitiveMode::TriangleFan, 5),
            vec![[0, 1, 2], [0, 2, 3], [0, 3, 4]]
        );
    }

    #[test]
    fn edge_function_sign() {
        // CCW triangle, point inside → positive.
        assert!(edge(0.0, 0.0, 4.0, 0.0, 1.0, 1.0) > 0.0);
        assert!(edge(0.0, 0.0, 4.0, 0.0, 1.0, -1.0) < 0.0);
        assert_eq!(edge(0.0, 0.0, 4.0, 0.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn top_left_rule_claims_shared_edges_once() {
        // Any edge and its reverse: exactly one accepts zero.
        let cases = [
            (0.0, 0.0, 4.0, 0.0),
            (0.0, 0.0, 0.0, 4.0),
            (0.0, 0.0, 4.0, 4.0),
            (4.0, 1.0, 0.0, 3.0),
        ];
        for (ax, ay, bx, by) in cases {
            let forward = accepts_zero_edge(ax, ay, bx, by);
            let backward = accepts_zero_edge(bx, by, ax, ay);
            assert_ne!(forward, backward, "edge ({ax},{ay})→({bx},{by})");
        }
    }

    #[test]
    fn split_rows_is_contiguous_and_even() {
        assert_eq!(split_rows(0, 256, 3), vec![(0, 85), (85, 170), (170, 256)]);
        assert_eq!(split_rows(5, 7, 7), vec![(5, 6), (6, 7)]);
        assert_eq!(split_rows(3, 9, 1), vec![(3, 9)]);
        for (rows, bands) in [(17, 4), (256, 7), (3, 16), (1, 2)] {
            let split = split_rows(10, 10 + rows, bands);
            assert_eq!(split.len(), bands.min(rows as usize));
            assert_eq!(split[0].0, 10);
            assert_eq!(split.last().map(|b| b.1), Some(10 + rows));
            assert!(split.windows(2).all(|w| w[0].1 == w[1].0));
            let sizes = split.iter().map(|(lo, hi)| hi - lo);
            assert!(sizes.clone().max().unwrap() - sizes.min().unwrap() <= 1);
        }
    }

    /// Fragments `setups` cover in target rows `y0..y1`.
    fn fragments_in(setups: &[TriangleSetup], (y0, y1): (i32, i32)) -> u64 {
        let mut n = 0;
        for s in setups {
            for py in s.y0.max(y0)..s.y1.min(y1) {
                for px in s.x0..s.x1 {
                    n += u64::from(s.weights(px as f64 + 0.5, py as f64 + 0.5).is_some());
                }
            }
        }
        n
    }

    #[test]
    fn whole_draw_bands_balance_the_fullscreen_quad() {
        // `gpes_core::geometry::FULLSCREEN_QUAD` (gpes-core sits above this
        // crate): two triangles sharing the (-1, -1)–(1, 1) diagonal.
        const FULLSCREEN_QUAD: [[f32; 2]; 6] = [
            [-1.0, -1.0],
            [1.0, -1.0],
            [1.0, 1.0],
            [-1.0, -1.0],
            [1.0, 1.0],
            [-1.0, 1.0],
        ];
        let verts: Vec<ShadedVertex> = FULLSCREEN_QUAD
            .iter()
            .map(|&[x, y]| ShadedVertex {
                clip: [x, y, 0.0, 1.0],
                varyings: Vec::new(),
                point_size: 1.0,
            })
            .collect();
        let viewport = (0, 0, 256, 256);
        let setups: Vec<TriangleSetup> = assemble(PrimitiveMode::Triangles, 6)
            .iter()
            .filter_map(|t| {
                let tri = [&verts[t[0]], &verts[t[1]], &verts[t[2]]];
                setup_triangle(tri, viewport, (0, 0, 256, 256))
            })
            .collect();
        assert_eq!(setups.len(), 2);

        // Whole-draw bands: both halves of the target hold the same share
        // of the quad's 65,536 fragments, to within one row.
        let bands = split_rows(0, 256, 2);
        let counts: Vec<u64> = bands.iter().map(|&b| fragments_in(&setups, b)).collect();
        assert_eq!(counts.iter().sum::<u64>(), 256 * 256);
        assert!(counts[0].abs_diff(counts[1]) <= 256, "{counts:?}");

        // The per-triangle split it replaced banded each triangle's own
        // rows: the wide half holds 3/4 of a half-quad's fragments, 3:1
        // against the narrow half, so two threads stayed under
        // 1/0.75 = 1.33x.
        for setup in &setups {
            let halves: Vec<u64> = split_rows(setup.y0, setup.y1, 2)
                .iter()
                .map(|&b| fragments_in(std::slice::from_ref(setup), b))
                .collect();
            let (wide, narrow) = (halves[0].max(halves[1]), halves[0].min(halves[1]));
            assert!(wide.abs_diff(3 * narrow) <= 3 * 256, "{halves:?}");
        }
    }

    #[test]
    fn dispatch_thread_counts() {
        assert_eq!(Dispatch::Serial.threads(), 1);
        assert_eq!(Dispatch::Parallel(4).threads(), 4);
        assert_eq!(Dispatch::Parallel(0).threads(), 1);
        assert!(Dispatch::Auto.threads() >= 1);
    }

    #[test]
    fn attribute_padding_follows_gl() {
        let arr = AttribArray {
            size: 2,
            data: vec![1.0, 2.0, 3.0, 4.0],
        };
        let v = attribute_value(&arr, 1, &Type::Vec4).expect("value");
        assert_eq!(v, Value::Vec4([3.0, 4.0, 0.0, 1.0]));
        let v = attribute_value(&arr, 0, &Type::Float).expect("value");
        assert_eq!(v, Value::Float(1.0));
    }

    #[test]
    fn attribute_bounds_checked() {
        let arr = AttribArray {
            size: 3,
            data: vec![0.0; 6],
        };
        assert!(attribute_value(&arr, 2, &Type::Vec3).is_err());
    }
}
