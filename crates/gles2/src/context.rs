//! The GL context: object tables, bound state, draw calls and readback.

use crate::convert::StoreRounding;
use crate::error::GlError;
use crate::faults::{FaultOutcome, FaultPlan, FaultSite};
use crate::framebuffer::{DefaultFramebuffer, Framebuffer};
use crate::handles::{FramebufferId, ProgramId, TextureId};
use crate::limits::{shader_precision_format, Extensions, Limits, PrecisionFormat};
use crate::program::Program;
use crate::raster::{
    self, AttribArray, Bindings, Dispatch, DrawStats, ExecMode, PrimitiveMode, RasterConfig,
    TargetImage,
};
use crate::texture::{Filter, TexFormat, Texture, Wrap};
use gpes_glsl::exec::{ExecLimits, FloatModel};
use gpes_glsl::{Precision, ShaderKind, Value};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// A software OpenGL ES 2.0 context.
///
/// One context owns all objects (textures, programs, framebuffers), the
/// default framebuffer and the bound state, mirroring a real EGL context +
/// surface.
///
/// # Example
///
/// ```
/// use gpes_gles2::{Context, PrimitiveMode};
///
/// # fn main() -> Result<(), gpes_gles2::GlError> {
/// let mut gl = Context::new(4, 4)?;
/// let prog = gl.create_program(
///     "attribute vec2 a_pos;
///      void main() { gl_Position = vec4(a_pos, 0.0, 1.0); }",
///     "precision highp float;
///      void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }",
/// )?;
/// gl.use_program(prog)?;
/// gl.set_attribute("a_pos", 2, &[-1.0, -1.0, 3.0, -1.0, -1.0, 3.0])?;
/// gl.draw_arrays(PrimitiveMode::Triangles, 0, 3)?;
/// let pixels = gl.read_pixels(0, 0, 4, 4)?;
/// assert_eq!(&pixels[..4], &[255, 0, 0, 255]);
/// # Ok(())
/// # }
/// ```
pub struct Context {
    textures: Vec<Option<Texture>>,
    programs: Vec<Option<Program>>,
    framebuffers: Vec<Option<Framebuffer>>,
    default_fb: DefaultFramebuffer,
    bound_fb: Option<FramebufferId>,
    current_program: Option<ProgramId>,
    texture_units: Vec<Option<TextureId>>,
    attributes: HashMap<String, AttribArray>,
    viewport: (i32, i32, i32, i32),
    scissor: Option<(i32, i32, i32, i32)>,
    clear_color: [f32; 4],
    depth_test: bool,
    store_rounding: StoreRounding,
    float_model: FloatModel,
    dispatch: Dispatch,
    exec_limits: ExecLimits,
    exec_mode: ExecMode,
    limits: Limits,
    extensions: Extensions,
    strict_shaders: bool,
    last_stats: DrawStats,
    // Fault injection lives behind interior mutability because the read
    // path (`read_pixels`, completeness checks) takes `&self`.
    faults: RefCell<Option<FaultPlan>>,
    lost: Cell<bool>,
}

impl Context {
    /// Creates a context with a default framebuffer of the given size
    /// (the EGL window surface).
    ///
    /// # Errors
    ///
    /// `InvalidValue` if either dimension is zero or exceeds the maximum
    /// renderbuffer size.
    pub fn new(width: u32, height: u32) -> Result<Context, GlError> {
        Context::new_with_limits(width, height, Limits::default())
    }

    /// Creates a context with explicit implementation limits — useful to
    /// simulate a more constrained device (smaller `GL_MAX_TEXTURE_SIZE`,
    /// fewer texture units) than the VideoCore IV defaults.
    ///
    /// # Errors
    ///
    /// `InvalidValue` if either dimension is zero or exceeds
    /// `limits.max_texture_size`.
    pub fn new_with_limits(width: u32, height: u32, limits: Limits) -> Result<Context, GlError> {
        if width == 0
            || height == 0
            || width > limits.max_texture_size
            || height > limits.max_texture_size
        {
            return Err(GlError::invalid_value(format!(
                "default framebuffer size {width}x{height} out of range"
            )));
        }
        Ok(Context {
            textures: Vec::new(),
            programs: Vec::new(),
            framebuffers: Vec::new(),
            default_fb: DefaultFramebuffer::new(width, height),
            bound_fb: None,
            current_program: None,
            texture_units: vec![None; limits.max_texture_units],
            attributes: HashMap::new(),
            viewport: (0, 0, width as i32, height as i32),
            scissor: None,
            clear_color: [0.0, 0.0, 0.0, 0.0],
            depth_test: false,
            store_rounding: StoreRounding::default(),
            float_model: FloatModel::default(),
            // The CI dispatch matrix pins rasteriser threading through the
            // environment so every test binary runs both serial and
            // banded-parallel without per-test plumbing.
            dispatch: Dispatch::from_env().unwrap_or_default(),
            exec_limits: ExecLimits::default(),
            // `GPES_EXECUTOR` mirrors `GPES_DISPATCH`: the CI matrix pins
            // the executor without per-test plumbing.
            exec_mode: ExecMode::from_env().unwrap_or_default(),
            limits,
            extensions: Extensions::default(),
            strict_shaders: false,
            last_stats: DrawStats::default(),
            faults: RefCell::new(None),
            lost: Cell::new(false),
        })
    }

    // ---- configuration -----------------------------------------------------

    /// Implementation limits (`glGetIntegerv`).
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Enabled driver extensions (all off by default — core ES 2.0).
    pub fn extensions(&self) -> &Extensions {
        &self.extensions
    }

    /// Advertised extension strings (`glGetString(GL_EXTENSIONS)`).
    pub fn extension_strings(&self) -> Vec<&'static str> {
        self.extensions.strings()
    }

    /// Simulates a driver that ships the named extension (§II.5–6: "some
    /// vendors provide extensions for half floats"). Known names:
    /// `"GL_OES_texture_half_float"` and
    /// `"GL_EXT_color_buffer_half_float"`.
    ///
    /// # Errors
    ///
    /// `InvalidEnum` for names this simulator does not model.
    pub fn enable_extension(&mut self, name: &str) -> Result<(), GlError> {
        match name {
            "GL_OES_texture_half_float" => {
                self.extensions.oes_texture_half_float = true;
                Ok(())
            }
            "GL_EXT_color_buffer_half_float" => {
                // Rendering half floats implies being able to create the
                // texture in the first place.
                self.extensions.oes_texture_half_float = true;
                self.extensions.ext_color_buffer_half_float = true;
                Ok(())
            }
            other => Err(GlError::invalid_enum(format!(
                "unknown extension `{other}`"
            ))),
        }
    }

    /// `glGetShaderPrecisionFormat` — the call the paper uses in §IV-E.
    pub fn shader_precision_format(
        &self,
        kind: ShaderKind,
        precision: Precision,
    ) -> PrecisionFormat {
        shader_precision_format(kind, precision)
    }

    /// Selects how the framebuffer rounds float outputs to bytes (eq. (2)).
    pub fn set_store_rounding(&mut self, rounding: StoreRounding) {
        self.store_rounding = rounding;
    }

    /// Selects the floating-point model the simulated GPU executes with.
    pub fn set_float_model(&mut self, model: FloatModel) {
        self.float_model = model;
    }

    /// Current floating-point model.
    pub fn float_model(&self) -> FloatModel {
        self.float_model
    }

    /// Selects serial or parallel fragment dispatch.
    pub fn set_dispatch(&mut self, dispatch: Dispatch) {
        self.dispatch = dispatch;
    }

    /// Selects the shader execution mode (SPMD lane VM by default; the
    /// scalar VM and tree-walking interpreter remain available as
    /// reference oracles for differential testing).
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The current shader execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Replaces shader execution limits (loop budgets).
    pub fn set_exec_limits(&mut self, limits: ExecLimits) {
        self.exec_limits = limits;
    }

    /// Enables or disables the depth test (disabled by default, as GPGPU
    /// passes do not use it).
    pub fn set_depth_test(&mut self, enabled: bool) {
        self.depth_test = enabled;
    }

    /// Sets the viewport (`glViewport`).
    pub fn viewport(&mut self, x: i32, y: i32, width: i32, height: i32) {
        self.viewport = (x, y, width.max(0), height.max(0));
    }

    /// Sets or clears the scissor rectangle.
    pub fn set_scissor(&mut self, scissor: Option<(i32, i32, i32, i32)>) {
        self.scissor = scissor;
    }

    /// Sets the clear colour (`glClearColor`).
    pub fn set_clear_color(&mut self, rgba: [f32; 4]) {
        self.clear_color = rgba;
    }

    /// Statistics of the most recent draw call.
    pub fn last_draw_stats(&self) -> &DrawStats {
        &self.last_stats
    }

    /// Dimensions of the default framebuffer (the EGL surface size).
    pub fn default_size(&self) -> (u32, u32) {
        (self.default_fb.width(), self.default_fb.height())
    }

    // ---- fault injection ---------------------------------------------------

    /// Installs a deterministic [`FaultPlan`]: from now on the five
    /// injectable [`FaultSite`]s consult the plan, which can fail them
    /// with [`GlError::ResourceExhausted`] or lose the context outright.
    /// Replaces any previously installed plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        *self.faults.borrow_mut() = Some(plan);
    }

    /// Removes and returns the installed fault plan **with its advanced
    /// state** (PRNG position, consumed one-shots, injection counters) —
    /// the serving engine moves a worker's plan onto the replacement
    /// context after a rebuild so a one-shot loss cannot fire twice.
    pub fn take_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.borrow_mut().take()
    }

    /// Whether this context has been poisoned by a context loss: every
    /// call that can fail now returns [`GlError::ContextLost`].
    pub fn is_lost(&self) -> bool {
        self.lost.get()
    }

    /// Faults the installed plan has injected so far (context losses
    /// included); `0` with no plan installed.
    pub fn faults_injected(&self) -> u64 {
        self.faults.borrow().as_ref().map_or(0, FaultPlan::injected)
    }

    /// One injectable operation: fails fast on a poisoned context, then
    /// asks the plan (if any) whether this operation faults.
    fn fault_check(&self, site: FaultSite) -> Result<(), GlError> {
        self.ensure_live()?;
        let mut guard = self.faults.borrow_mut();
        let Some(plan) = guard.as_mut() else {
            return Ok(());
        };
        match plan.roll(site) {
            FaultOutcome::Pass => Ok(()),
            FaultOutcome::Fault => Err(GlError::ResourceExhausted {
                message: format!("injected fault: {}", site.label()),
            }),
            FaultOutcome::LoseContext => {
                drop(guard);
                self.lost.set(true);
                Err(GlError::ContextLost)
            }
        }
    }

    /// The `EGL_CONTEXT_LOST` poison check for operations that are not
    /// injection sites themselves but must still die on a lost context.
    fn ensure_live(&self) -> Result<(), GlError> {
        if self.lost.get() {
            Err(GlError::ContextLost)
        } else {
            Ok(())
        }
    }

    // ---- textures -----------------------------------------------------------

    /// Creates a texture object (`glGenTextures`).
    pub fn create_texture(&mut self) -> TextureId {
        self.textures.push(Some(Texture::new()));
        TextureId(self.textures.len() as u32 - 1)
    }

    fn texture(&self, id: TextureId) -> Result<&Texture, GlError> {
        self.textures
            .get(id.0 as usize)
            .and_then(|t| t.as_ref())
            .ok_or(GlError::NoSuchObject {
                kind: "texture",
                id: id.0,
            })
    }

    fn texture_mut(&mut self, id: TextureId) -> Result<&mut Texture, GlError> {
        self.textures
            .get_mut(id.0 as usize)
            .and_then(|t| t.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "texture",
                id: id.0,
            })
    }

    /// Uploads texel data (`glTexImage2D`). Only byte formats exist —
    /// limitation #5 of the paper is structural.
    ///
    /// # Errors
    ///
    /// Size/format validation errors from the texture object.
    pub fn tex_image_2d(
        &mut self,
        id: TextureId,
        format: TexFormat,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureUpload)?;
        let max = self.limits.max_texture_size;
        if width > max || height > max {
            return Err(GlError::invalid_value(format!(
                "texture {width}x{height} exceeds GL_MAX_TEXTURE_SIZE {max}"
            )));
        }
        if format.requires_extension() && !self.extensions.oes_texture_half_float {
            return Err(GlError::invalid_enum(format!(
                "format {format:?} requires GL_OES_texture_half_float"
            )));
        }
        self.texture_mut(id)?
            .tex_image_2d(format, width, height, data)
    }

    /// Allocates zeroed texture storage (render target usage).
    ///
    /// # Errors
    ///
    /// Same validation as [`Context::tex_image_2d`].
    pub fn tex_storage(
        &mut self,
        id: TextureId,
        format: TexFormat,
        width: u32,
        height: u32,
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureAlloc)?;
        if format.requires_extension() && !self.extensions.oes_texture_half_float {
            return Err(GlError::invalid_enum(format!(
                "format {format:?} requires GL_OES_texture_half_float"
            )));
        }
        self.texture_mut(id)?.tex_storage(format, width, height)
    }

    /// Updates a sub-rectangle (`glTexSubImage2D`).
    ///
    /// # Errors
    ///
    /// Bounds/length validation from the texture object.
    pub fn tex_sub_image_2d(
        &mut self,
        id: TextureId,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
        data: &[u8],
    ) -> Result<(), GlError> {
        self.fault_check(FaultSite::TextureUpload)?;
        self.texture_mut(id)?
            .tex_sub_image_2d(x, y, width, height, data)
    }

    /// Sets min/mag filters (`glTexParameteri`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn set_texture_filter(
        &mut self,
        id: TextureId,
        min: Filter,
        mag: Filter,
    ) -> Result<(), GlError> {
        let t = self.texture_mut(id)?;
        t.min_filter = min;
        t.mag_filter = mag;
        Ok(())
    }

    /// Sets wrap modes (`glTexParameteri`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn set_texture_wrap(&mut self, id: TextureId, s: Wrap, t: Wrap) -> Result<(), GlError> {
        let tex = self.texture_mut(id)?;
        tex.wrap_s = s;
        tex.wrap_t = t;
        Ok(())
    }

    /// Binds a texture to a unit (`glActiveTexture` + `glBindTexture`).
    ///
    /// # Errors
    ///
    /// `InvalidValue` for units beyond the limit; `NoSuchObject` for stale
    /// handles.
    pub fn bind_texture(&mut self, unit: u32, id: TextureId) -> Result<(), GlError> {
        if unit as usize >= self.texture_units.len() {
            return Err(GlError::invalid_value(format!(
                "texture unit {unit} exceeds the {} available units",
                self.texture_units.len()
            )));
        }
        self.texture(id)?; // validate
        self.texture_units[unit as usize] = Some(id);
        Ok(())
    }

    /// Unbinds whatever texture is bound to a unit.
    pub fn unbind_texture(&mut self, unit: u32) {
        if let Some(slot) = self.texture_units.get_mut(unit as usize) {
            *slot = None;
        }
    }

    /// Texture metadata (width, height, format) for inspection.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn texture_info(&self, id: TextureId) -> Result<(TexFormat, u32, u32), GlError> {
        let t = self.texture(id)?;
        Ok((t.format(), t.width(), t.height()))
    }

    /// Deletes a texture object.
    pub fn delete_texture(&mut self, id: TextureId) {
        if let Some(slot) = self.textures.get_mut(id.0 as usize) {
            *slot = None;
        }
        for unit in self.texture_units.iter_mut() {
            if *unit == Some(id) {
                *unit = None;
            }
        }
    }

    /// Direct texel access **for tests and debugging only** — real ES 2 has
    /// no `glGetTexImage`; production code must read results through a
    /// framebuffer (the paper's limitation #7).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn debug_texture_data(&self, id: TextureId) -> Result<&[u8], GlError> {
        Ok(self.texture(id)?.data())
    }

    // ---- programs -----------------------------------------------------------

    /// Compiles and links a program (`glCreateProgram` et al.).
    ///
    /// # Errors
    ///
    /// Compile or link diagnostics.
    pub fn create_program(&mut self, vs: &str, fs: &str) -> Result<ProgramId, GlError> {
        self.fault_check(FaultSite::ProgramLink)?;
        let program = Program::link_with(vs, fs, &self.limits, self.strict_shaders)?;
        self.programs.push(Some(program));
        Ok(ProgramId(self.programs.len() as u32 - 1))
    }

    /// Adopts an already-linked [`Program`] into this context's object
    /// table without compiling or linking anything — the mechanism behind
    /// cross-context program sharing: a process-wide cache links each
    /// generated source once, and every worker context installs a clone.
    /// The clone shares the expensive lowered bytecode through `Arc`
    /// handles; only the (empty) per-context uniform table is fresh.
    ///
    /// The caller is responsible for having linked the program under
    /// limits compatible with this context (worker pools share one
    /// [`Limits`] value, so this holds by construction).
    pub fn install_program(&mut self, program: Program) -> ProgramId {
        self.programs.push(Some(program));
        ProgramId(self.programs.len() as u32 - 1)
    }

    /// Enables the GLSL ES Appendix A validation pass for programs
    /// created afterwards — simulating a minimum-profile driver like the
    /// VideoCore IV's, which rejects `while` loops and non-constant `for`
    /// bounds at compile time.
    pub fn set_strict_shaders(&mut self, strict: bool) {
        self.strict_shaders = strict;
    }

    /// Whether Appendix A validation is on.
    pub fn strict_shaders(&self) -> bool {
        self.strict_shaders
    }

    fn program(&self, id: ProgramId) -> Result<&Program, GlError> {
        self.programs
            .get(id.0 as usize)
            .and_then(|p| p.as_ref())
            .ok_or(GlError::NoSuchObject {
                kind: "program",
                id: id.0,
            })
    }

    /// Makes a program current (`glUseProgram`).
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn use_program(&mut self, id: ProgramId) -> Result<(), GlError> {
        self.ensure_live()?;
        self.program(id)?;
        self.current_program = Some(id);
        Ok(())
    }

    /// Sets a uniform on the current program (`glUniform*`).
    ///
    /// # Errors
    ///
    /// `InvalidOperation` with no program bound, unknown names or type
    /// mismatches.
    pub fn set_uniform(&mut self, name: &str, value: Value) -> Result<(), GlError> {
        self.ensure_live()?;
        let id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;
        self.programs
            .get_mut(id.0 as usize)
            .and_then(|p| p.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "program",
                id: id.0,
            })?
            .set_uniform(name, value)
    }

    /// Introspects the current program's interface.
    ///
    /// # Errors
    ///
    /// `InvalidOperation` if no program is current.
    pub fn current_program_info(&self) -> Result<&Program, GlError> {
        let id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;
        self.program(id)
    }

    /// Deletes a program object.
    pub fn delete_program(&mut self, id: ProgramId) {
        if let Some(slot) = self.programs.get_mut(id.0 as usize) {
            *slot = None;
        }
        if self.current_program == Some(id) {
            self.current_program = None;
        }
    }

    // ---- attributes -----------------------------------------------------------

    /// Supplies a client-side attribute array (`glVertexAttribPointer` with
    /// client memory, which ES 2 allows).
    ///
    /// # Errors
    ///
    /// `InvalidValue` for sizes outside 1–4 or ragged data.
    pub fn set_attribute(&mut self, name: &str, size: usize, data: &[f32]) -> Result<(), GlError> {
        if !(1..=4).contains(&size) {
            return Err(GlError::invalid_value("attribute size must be 1..=4"));
        }
        if !data.len().is_multiple_of(size) {
            return Err(GlError::invalid_value(
                "attribute data length is not a multiple of its size",
            ));
        }
        self.attributes.insert(
            name.to_owned(),
            AttribArray {
                size,
                data: data.to_vec(),
            },
        );
        Ok(())
    }

    // ---- framebuffers ----------------------------------------------------------

    /// Creates a framebuffer object (`glGenFramebuffers`).
    pub fn create_framebuffer(&mut self) -> FramebufferId {
        self.framebuffers.push(Some(Framebuffer::new()));
        FramebufferId(self.framebuffers.len() as u32 - 1)
    }

    /// Attaches a texture as `COLOR_ATTACHMENT0` (`glFramebufferTexture2D`)
    /// — the render-to-texture mechanism of workaround #7.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn framebuffer_texture(
        &mut self,
        fb: FramebufferId,
        tex: TextureId,
    ) -> Result<(), GlError> {
        self.ensure_live()?;
        self.texture(tex)?;
        let fbo = self
            .framebuffers
            .get_mut(fb.0 as usize)
            .and_then(|f| f.as_mut())
            .ok_or(GlError::NoSuchObject {
                kind: "framebuffer",
                id: fb.0,
            })?;
        fbo.color_attachment = Some(tex);
        Ok(())
    }

    /// Binds a framebuffer; `None` binds the default framebuffer.
    ///
    /// # Errors
    ///
    /// `NoSuchObject` for stale handles.
    pub fn bind_framebuffer(&mut self, fb: Option<FramebufferId>) -> Result<(), GlError> {
        self.ensure_live()?;
        if let Some(id) = fb {
            self.framebuffers
                .get(id.0 as usize)
                .and_then(|f| f.as_ref())
                .ok_or(GlError::NoSuchObject {
                    kind: "framebuffer",
                    id: id.0,
                })?;
        }
        self.bound_fb = fb;
        Ok(())
    }

    /// `glCheckFramebufferStatus` for the bound framebuffer.
    ///
    /// # Errors
    ///
    /// `InvalidFramebufferOperation` describing incompleteness.
    pub fn check_framebuffer_complete(&self) -> Result<(), GlError> {
        self.fault_check(FaultSite::FramebufferCheck)?;
        match self.bound_fb {
            None => Ok(()),
            Some(id) => {
                let fbo = self
                    .framebuffers
                    .get(id.0 as usize)
                    .and_then(|f| f.as_ref())
                    .ok_or(GlError::NoSuchObject {
                        kind: "framebuffer",
                        id: id.0,
                    })?;
                fbo.check_complete(
                    |tid| {
                        self.texture(tid)
                            .ok()
                            .map(|t| (t.format(), t.width(), t.height()))
                    },
                    self.extensions.ext_color_buffer_half_float,
                )
            }
        }
    }

    /// Dimensions of the currently bound render target.
    ///
    /// # Errors
    ///
    /// Completeness errors for FBOs.
    pub fn target_size(&self) -> Result<(u32, u32), GlError> {
        match self.bound_fb {
            None => Ok((self.default_fb.width(), self.default_fb.height())),
            Some(id) => {
                let fbo = self
                    .framebuffers
                    .get(id.0 as usize)
                    .and_then(|f| f.as_ref())
                    .ok_or(GlError::NoSuchObject {
                        kind: "framebuffer",
                        id: id.0,
                    })?;
                let tex = fbo
                    .color_attachment
                    .ok_or(GlError::InvalidFramebufferOperation {
                        message: "missing color attachment".into(),
                    })?;
                let t = self.texture(tex)?;
                Ok((t.width(), t.height()))
            }
        }
    }

    /// Clears the bound framebuffer's colour (and depth when depth testing
    /// is enabled).
    ///
    /// # Errors
    ///
    /// Completeness errors for FBOs.
    pub fn clear(&mut self) -> Result<(), GlError> {
        self.check_framebuffer_complete()?;
        let rgba = self.clear_color;
        let bytes: Vec<u8> = rgba
            .iter()
            .map(|&c| crate::convert::float_to_texel(c, self.store_rounding))
            .collect();
        match self.bound_fb {
            None => {
                for px in self.default_fb.color_mut().chunks_exact_mut(4) {
                    px.copy_from_slice(&bytes);
                }
                for d in self.default_fb.depth_mut().iter_mut() {
                    *d = 1.0;
                }
            }
            Some(id) => {
                let tex_id = self.framebuffers[id.0 as usize]
                    .as_ref()
                    .expect("validated")
                    .color_attachment
                    .expect("validated");
                let tex = self.texture_mut(tex_id)?;
                match tex.format() {
                    TexFormat::RgbaF16 => {
                        let mut half_bytes = [0u8; 8];
                        for (i, &c) in rgba.iter().enumerate() {
                            let b = crate::half::f32_to_f16_bits(c).to_le_bytes();
                            half_bytes[2 * i] = b[0];
                            half_bytes[2 * i + 1] = b[1];
                        }
                        for px in tex.data_mut().chunks_exact_mut(8) {
                            px.copy_from_slice(&half_bytes);
                        }
                    }
                    _ => {
                        for px in tex.data_mut().chunks_exact_mut(4) {
                            px.copy_from_slice(&bytes);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    // ---- drawing -----------------------------------------------------------

    /// Issues a draw call (`glDrawArrays`).
    ///
    /// # Errors
    ///
    /// * `InvalidOperation` — no current program, missing attribute arrays,
    ///   or a sampler feedback loop (a texture simultaneously bound for
    ///   sampling and attached to the bound framebuffer).
    /// * `InvalidFramebufferOperation` — incomplete bound FBO.
    /// * `ShaderTrap` — a shader exceeded its execution limits.
    pub fn draw_arrays(
        &mut self,
        mode: PrimitiveMode,
        first: usize,
        count: usize,
    ) -> Result<DrawStats, GlError> {
        self.check_framebuffer_complete()?;
        let program_id = self
            .current_program
            .ok_or_else(|| GlError::invalid_op("no program is current"))?;

        // Feedback-loop detection: sampling the render target is undefined
        // in GL; the simulator makes it a hard error.
        let attachment: Option<TextureId> = match self.bound_fb {
            None => None,
            Some(id) => self.framebuffers[id.0 as usize]
                .as_ref()
                .and_then(|f| f.color_attachment),
        };
        if let Some(att) = attachment {
            if self.texture_units.iter().flatten().any(|&t| t == att) {
                return Err(GlError::invalid_op(
                    "feedback loop: render-target texture is also bound for sampling",
                ));
            }
        }

        // Move the program (and, for render-to-texture, the attachment's
        // storage) out of the object tables so the remaining borrows of
        // `self`'s fields are disjoint during rasterisation.
        let program = self.programs[program_id.0 as usize]
            .take()
            .expect("validated current program");
        let mut taken_texture: Option<(TextureId, Texture)> = attachment.map(|att_id| {
            let tex = self.textures[att_id.0 as usize]
                .take()
                .expect("attachment validated");
            (att_id, tex)
        });

        let config = RasterConfig {
            viewport: self.viewport,
            scissor: self.scissor,
            store_rounding: self.store_rounding,
            float_model: self.float_model,
            dispatch: self.dispatch,
            exec_mode: self.exec_mode,
            depth_test: self.depth_test && self.bound_fb.is_none(),
            exec_limits: self.exec_limits,
        };
        let bindings = Bindings {
            units: self
                .texture_units
                .iter()
                .map(|slot| {
                    slot.and_then(|id| self.textures.get(id.0 as usize).and_then(|t| t.as_ref()))
                })
                .collect(),
        };
        let result = match &mut taken_texture {
            None => {
                let width = self.default_fb.width();
                let height = self.default_fb.height();
                draw_into_default(
                    &mut self.default_fb,
                    width,
                    height,
                    &program,
                    &self.attributes,
                    mode,
                    first,
                    count,
                    &bindings,
                    &config,
                )
            }
            Some((_, tex)) => {
                let width = tex.width();
                let height = tex.height();
                let pixel = match tex.format() {
                    TexFormat::RgbaF16 => raster::PixelStore::RgbaF16,
                    _ => raster::PixelStore::Rgba8,
                };
                let mut target = TargetImage {
                    width,
                    height,
                    color: tex.data_mut().as_mut_slice(),
                    depth: None,
                    pixel,
                };
                raster::draw(
                    &program,
                    &self.attributes,
                    mode,
                    first,
                    count,
                    &bindings,
                    &mut target,
                    &config,
                )
            }
        };
        drop(bindings);
        if let Some((id, tex)) = taken_texture {
            self.textures[id.0 as usize] = Some(tex);
        }
        self.programs[program_id.0 as usize] = Some(program);
        let stats = result?;
        self.last_stats = stats;
        Ok(stats)
    }

    /// Reads RGBA8 pixels from the bound framebuffer (`glReadPixels`).
    /// Row 0 of the result is the bottom row, as in GL.
    ///
    /// # Errors
    ///
    /// `InvalidValue` for out-of-bounds rectangles; completeness errors for
    /// FBOs.
    pub fn read_pixels(&self, x: u32, y: u32, width: u32, height: u32) -> Result<Vec<u8>, GlError> {
        self.fault_check(FaultSite::Readback)?;
        self.check_framebuffer_complete()?;
        let (tw, th, data): (u32, u32, &[u8]) = match self.bound_fb {
            None => (
                self.default_fb.width(),
                self.default_fb.height(),
                self.default_fb.color(),
            ),
            Some(id) => {
                let tex_id = self.framebuffers[id.0 as usize]
                    .as_ref()
                    .expect("validated")
                    .color_attachment
                    .expect("validated");
                let t = self.texture(tex_id)?;
                if t.format() == TexFormat::RgbaF16 {
                    return Err(GlError::invalid_op(
                        "RGBA/UNSIGNED_BYTE read from a half-float framebuffer; use read_pixels_f16",
                    ));
                }
                (t.width(), t.height(), t.data())
            }
        };
        if x + width > tw || y + height > th {
            return Err(GlError::invalid_value(format!(
                "read rectangle {x},{y} {width}x{height} exceeds target {tw}x{th}"
            )));
        }
        let mut out = Vec::with_capacity(width as usize * height as usize * 4);
        for row in y..y + height {
            let off = (row as usize * tw as usize + x as usize) * 4;
            out.extend_from_slice(&data[off..off + width as usize * 4]);
        }
        Ok(out)
    }

    /// Reads RGBA binary16 pixels from a half-float framebuffer
    /// (`glReadPixels` with `HALF_FLOAT`, part of
    /// `EXT_color_buffer_half_float`). Returns 4 half-floats per pixel as
    /// raw bits, row 0 at the bottom.
    ///
    /// # Errors
    ///
    /// `InvalidOperation` when the bound target is not half-float (or is
    /// the default framebuffer, which is always RGBA8); bounds and
    /// completeness errors as in [`Context::read_pixels`].
    pub fn read_pixels_f16(
        &self,
        x: u32,
        y: u32,
        width: u32,
        height: u32,
    ) -> Result<Vec<u16>, GlError> {
        self.fault_check(FaultSite::Readback)?;
        self.check_framebuffer_complete()?;
        let id = self.bound_fb.ok_or_else(|| {
            GlError::invalid_op("the default framebuffer is RGBA8; bind a half-float FBO")
        })?;
        let tex_id = self.framebuffers[id.0 as usize]
            .as_ref()
            .expect("validated")
            .color_attachment
            .expect("validated");
        let t = self.texture(tex_id)?;
        if t.format() != TexFormat::RgbaF16 {
            return Err(GlError::invalid_op(
                "HALF_FLOAT read from a non-half-float framebuffer",
            ));
        }
        let (tw, th) = (t.width(), t.height());
        if x + width > tw || y + height > th {
            return Err(GlError::invalid_value(format!(
                "read rectangle {x},{y} {width}x{height} exceeds target {tw}x{th}"
            )));
        }
        let data = t.data();
        let mut out = Vec::with_capacity(width as usize * height as usize * 4);
        for row in y..y + height {
            let off = (row as usize * tw as usize + x as usize) * 8;
            for px in data[off..off + width as usize * 8].chunks_exact(2) {
                out.push(u16::from_le_bytes([px[0], px[1]]));
            }
        }
        Ok(out)
    }
}

#[allow(clippy::too_many_arguments)]
fn draw_into_default(
    default_fb: &mut DefaultFramebuffer,
    width: u32,
    height: u32,
    program: &Program,
    attributes: &HashMap<String, AttribArray>,
    mode: PrimitiveMode,
    first: usize,
    count: usize,
    bindings: &Bindings<'_>,
    config: &RasterConfig,
) -> Result<DrawStats, GlError> {
    // Split the default framebuffer into its color and depth planes.
    let fb = default_fb;
    // Safety dance not needed: obtain both &mut via struct methods one at a
    // time is impossible; instead, temporarily move the buffers out.
    let mut color = std::mem::take(fb.color_mut());
    let mut depth = std::mem::take(fb.depth_mut());
    let mut target = TargetImage {
        width,
        height,
        color: color.as_mut_slice(),
        depth: if config.depth_test {
            Some(depth.as_mut_slice())
        } else {
            None
        },
        pixel: raster::PixelStore::Rgba8,
    };
    let result = raster::draw(
        program,
        attributes,
        mode,
        first,
        count,
        bindings,
        &mut target,
        config,
    );
    *fb.color_mut() = color;
    *fb.depth_mut() = depth;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const VS_QUAD: &str = "attribute vec2 a_pos;\nvarying vec2 v_uv;\n\
        void main() { v_uv = a_pos * 0.5 + 0.5; gl_Position = vec4(a_pos, 0.0, 1.0); }";

    /// Two triangles covering the full clip space — the paper's
    /// workaround #2 for the missing quad primitive.
    const QUAD: [f32; 12] = [
        -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, // lower-right triangle
        -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, // upper-left triangle
    ];

    fn quad_context(w: u32, h: u32, fs: &str) -> (Context, ProgramId) {
        let mut gl = Context::new(w, h).expect("context");
        let prog = gl.create_program(VS_QUAD, fs).expect("program");
        gl.use_program(prog).expect("use");
        gl.set_attribute("a_pos", 2, &QUAD).expect("attrib");
        (gl, prog)
    }

    #[test]
    fn solid_fill_covers_every_pixel_exactly_once() {
        let (mut gl, _) = quad_context(
            8,
            8,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0, 0.0, 0.5, 1.0); }",
        );
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.vertices_shaded, 6);
        assert_eq!(stats.triangles_in, 2);
        assert_eq!(stats.triangles_rasterized, 2);
        // The fill-rule guarantee: exactly one fragment per pixel.
        assert_eq!(stats.fragments_shaded, 64);
        assert_eq!(stats.pixels_written, 64);
        let px = gl.read_pixels(0, 0, 8, 8).expect("read");
        for chunk in px.chunks_exact(4) {
            assert_eq!(chunk, &[255, 0, 127, 255]);
        }
    }

    #[test]
    fn points_scatter_one_pixel_each_with_passthrough_varyings() {
        let mut gl = Context::new(4, 4).expect("context");
        let vs = "attribute vec2 a_pos;\nattribute float a_val;\nvarying float v_val;\n\
                  void main() {\n\
                    v_val = a_val;\n\
                    gl_PointSize = 1.0;\n\
                    gl_Position = vec4(a_pos, 0.0, 1.0);\n\
                  }";
        let fs = "precision highp float;\nvarying float v_val;\n\
                  void main() { gl_FragColor = vec4(v_val, 0.0, 0.0, 1.0); }";
        let prog = gl.create_program(vs, fs).expect("program");
        gl.use_program(prog).expect("use");
        // Four points at the four pixel centres of the diagonal-ish cells.
        // NDC centre of pixel (x, y) on a 4x4 target: ((x+0.5)/2 - 1, …).
        let ndc = |p: f32| (p + 0.5) / 2.0 - 1.0;
        let positions = [
            ndc(0.0),
            ndc(0.0), //
            ndc(3.0),
            ndc(0.0), //
            ndc(1.0),
            ndc(2.0), //
            ndc(2.0),
            ndc(3.0),
        ];
        let values = [0.25f32, 0.5, 0.75, 1.0];
        gl.set_attribute("a_pos", 2, &positions).expect("pos");
        gl.set_attribute("a_val", 1, &values).expect("val");
        let stats = gl.draw_arrays(PrimitiveMode::Points, 0, 4).expect("draw");
        assert_eq!(stats.vertices_shaded, 4);
        assert_eq!(stats.fragments_shaded, 4, "one pixel per unit point");
        assert_eq!(stats.pixels_written, 4);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        let at = |x: usize, y: usize| px[(y * 4 + x) * 4];
        assert_eq!(at(0, 0), 63); // 0.25 → ⌊0.25·255⌋
        assert_eq!(at(3, 0), 127);
        assert_eq!(at(1, 2), 191);
        assert_eq!(at(2, 3), 255);
        // Untouched pixels keep the clear colour.
        assert_eq!(at(1, 0), 0);
        // Point draws accept any count (no multiple-of-3 rule).
        gl.draw_arrays(PrimitiveMode::Points, 0, 1)
            .expect("single point");
    }

    #[test]
    fn large_point_size_covers_a_square() {
        let mut gl = Context::new(4, 4).expect("context");
        let vs = "attribute vec2 a_pos;\n\
                  void main() { gl_PointSize = 2.0; gl_Position = vec4(a_pos, 0.0, 1.0); }";
        let fs = "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }";
        let prog = gl.create_program(vs, fs).expect("program");
        gl.use_program(prog).expect("use");
        // Point at the exact centre of the target: covers the middle 2x2.
        gl.set_attribute("a_pos", 2, &[0.0, 0.0]).expect("pos");
        let stats = gl.draw_arrays(PrimitiveMode::Points, 0, 1).expect("draw");
        assert_eq!(stats.pixels_written, 4);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        let at = |x: usize, y: usize| px[(y * 4 + x) * 4];
        for (x, y) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            assert_eq!(at(x, y), 255, "pixel {x},{y}");
        }
        assert_eq!(at(0, 0), 0);
        assert_eq!(at(3, 3), 0);
    }

    #[test]
    fn strict_driver_rejects_appendix_a_violations() {
        let mut gl = Context::new(4, 4).expect("context");
        let fs_dynamic = "precision highp float;\nuniform float u_n;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < u_n; i += 1.0) { acc += 1.0; }\n\
               gl_FragColor = vec4(acc);\n\
             }";
        // The permissive driver takes it…
        gl.create_program(VS_QUAD, fs_dynamic).expect("permissive");
        // …the minimum-profile driver does not.
        gl.set_strict_shaders(true);
        assert!(gl.strict_shaders());
        let err = gl.create_program(VS_QUAD, fs_dynamic).unwrap_err();
        assert!(err.to_string().contains("appendix A"), "{err}");
        // Conformant loops still compile under strict mode.
        let fs_const = "precision highp float;\n\
             void main() {\n\
               float acc = 0.0;\n\
               for (float i = 0.0; i < 8.0; i += 1.0) { acc += 1.0; }\n\
               gl_FragColor = vec4(acc / 255.0);\n\
             }";
        gl.create_program(VS_QUAD, fs_const)
            .expect("strict-conformant");
    }

    #[test]
    fn preprocessor_runs_in_the_driver_compile_path() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\n\
             #define HALF 0.5\n\
             #ifdef HALF\n\
             void main() { gl_FragColor = vec4(HALF); }\n\
             #else\n\
             void main() { gl_FragColor = vec4(0.0); }\n\
             #endif\n",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        assert_eq!(px[0], 127);
    }

    #[test]
    fn half_float_formats_gated_behind_extension() {
        let mut gl = Context::new(4, 4).expect("context");
        let tex = gl.create_texture();
        // Core ES 2: the format does not exist.
        let err = gl.tex_storage(tex, TexFormat::RgbaF16, 2, 2).unwrap_err();
        assert!(matches!(err, GlError::InvalidEnum { .. }));
        assert!(gl.extension_strings().is_empty());
        assert!(gl.enable_extension("GL_IMG_made_up").is_err());
        gl.enable_extension("GL_OES_texture_half_float")
            .expect("enable");
        gl.tex_storage(tex, TexFormat::RgbaF16, 2, 2)
            .expect("now allowed");
        // Texturing is allowed, but rendering still needs the second
        // extension (the paper's portability point: these are separate
        // vendor decisions).
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, tex).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        let err = gl.check_framebuffer_complete().unwrap_err();
        assert!(err.to_string().contains("not color-renderable"));
        gl.enable_extension("GL_EXT_color_buffer_half_float")
            .expect("enable");
        gl.check_framebuffer_complete().expect("renderable now");
    }

    #[test]
    fn half_float_render_path_is_unclamped_but_10_bit() {
        // A saxpy through RGBA16F end to end: values escape [0,1] (no
        // eq. (2) clamp) but carry only a 10-bit mantissa — the §II.5–6
        // "not enough" half of the argument.
        let (mut gl, prog) = quad_context(
            2,
            2,
            "precision highp float;\nuniform sampler2D u_x;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = texture2D(u_x, v_uv) * 3.0 - 1.5; }",
        );
        gl.enable_extension("GL_EXT_color_buffer_half_float")
            .expect("enable");
        // Input texture: four halves per texel; store scalars in .x.
        let xs = [0.1f32, 100.25, -7.0, 1.0 + 2.0f32.powi(-11)];
        let mut data = Vec::new();
        for &v in &xs {
            for c in [v, 0.0, 0.0, 1.0] {
                data.extend_from_slice(&crate::half::f32_to_f16_bits(c).to_le_bytes());
            }
        }
        let src = gl.create_texture();
        gl.tex_image_2d(src, TexFormat::RgbaF16, 2, 2, &data)
            .expect("upload");
        let dst = gl.create_texture();
        gl.tex_storage(dst, TexFormat::RgbaF16, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, dst).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        gl.use_program(prog).expect("use");
        gl.bind_texture(0, src).expect("bind tex");
        gl.set_uniform("u_x", Value::Int(0)).expect("sampler");
        gl.viewport(0, 0, 2, 2);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        // Byte reads are refused on a float target…
        assert!(gl.read_pixels(0, 0, 2, 2).is_err());
        // …half-float reads work.
        let halves = gl.read_pixels_f16(0, 0, 2, 2).expect("read f16");
        assert_eq!(halves.len(), 16);
        for (i, &x) in xs.iter().enumerate() {
            let got = crate::half::f16_bits_to_f32(halves[i * 4]);
            let want = crate::half::f16_bits_to_f32(crate::half::f32_to_f16_bits(x)) * 3.0 - 1.5;
            let err = (got - want).abs();
            // fp16 tolerance: half an ulp at the result's scale.
            let tol = want.abs().max(1.0) * 2.0f32.powi(-10);
            assert!(err <= tol, "lane {i}: got {got}, want {want}");
            // Values escaped [0,1]: the clamp of eq. (2) did not apply.
        }
        let got1 = crate::half::f16_bits_to_f32(halves[4]);
        assert!(got1 > 1.0, "unclamped store expected, got {got1}");
        // The 2^-11 mantissa bit of lane 3 was lost crossing fp16.
        let got3 = crate::half::f16_bits_to_f32(halves[12]);
        assert_eq!(got3, 1.5, "10-bit mantissa flushes 2^-11 before scaling");
    }

    #[test]
    fn varying_interpolation_matches_pixel_centers() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        // Pixel (0,0) centre = (0.5, 0.5)/4 = uv (0.125, 0.125) → byte 31.
        assert_eq!(px[0], 31);
        assert_eq!(px[1], 31);
        // Pixel (3,3) centre uv = 0.875 → byte 223.
        let off = (3 * 4 + 3) * 4;
        assert_eq!(px[off], 223);
        assert_eq!(px[off + 1], 223);
    }

    #[test]
    fn gl_fragcoord_matches_pixel_centers() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\n\
             void main() { gl_FragColor = vec4(gl_FragCoord.xy / 4.0, 0.0, 1.0); }",
        );
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        // Pixel (1, 2): fragcoord = (1.5, 2.5)/4 → (0.375, 0.625) → 95, 159.
        let off = (2 * 4 + 1) * 4;
        assert_eq!(px[off], 95);
        assert_eq!(px[off + 1], 159);
    }

    #[test]
    fn texture_sampling_round_trip() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nvarying vec2 v_uv;\nuniform sampler2D u_tex;\n\
             void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
        );
        let tex = gl.create_texture();
        let data: Vec<u8> = (0..16).map(|i| (i * 16) as u8).collect();
        gl.tex_image_2d(tex, TexFormat::Rgba8, 2, 2, &data)
            .expect("upload");
        gl.bind_texture(0, tex).expect("bind");
        gl.set_uniform("u_tex", Value::Int(0)).expect("uniform");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        // Nearest sampling at pixel centres returns the texel bytes
        // unchanged (c/255 → store ⌊f*255⌋ round-trips exactly).
        assert_eq!(px, data);
    }

    #[test]
    fn render_to_texture_then_sample() {
        let (mut gl, _prog) = quad_context(
            2,
            2,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(0.5, 0.25, 0.75, 1.0); }",
        );
        // Pass 1: render into an FBO-attached texture.
        let target = gl.create_texture();
        gl.tex_storage(target, TexFormat::Rgba8, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, target).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind fbo");
        gl.viewport(0, 0, 2, 2);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw 1");
        // glReadPixels works on the bound FBO.
        let px = gl.read_pixels(0, 0, 2, 2).expect("read fbo");
        assert_eq!(&px[..4], &[127, 63, 191, 255]);

        // Pass 2: sample that texture into the default framebuffer
        // (workaround #7's copy-shader path).
        let copy = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvarying vec2 v_uv;\nuniform sampler2D u_src;\n\
                 void main() { gl_FragColor = texture2D(u_src, v_uv); }",
            )
            .expect("copy program");
        gl.bind_framebuffer(None).expect("default fb");
        gl.use_program(copy).expect("use");
        gl.bind_texture(0, target).expect("bind src");
        gl.set_uniform("u_src", Value::Int(0)).expect("sampler");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw 2");
        let px2 = gl.read_pixels(0, 0, 2, 2).expect("read default");
        assert_eq!(px, px2);
    }

    #[test]
    fn feedback_loop_is_rejected() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nuniform sampler2D u_tex;\nvarying vec2 v_uv;\n\
             void main() { gl_FragColor = texture2D(u_tex, v_uv); }",
        );
        let tex = gl.create_texture();
        gl.tex_storage(tex, TexFormat::Rgba8, 2, 2)
            .expect("storage");
        let fbo = gl.create_framebuffer();
        gl.framebuffer_texture(fbo, tex).expect("attach");
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        gl.bind_texture(0, tex).expect("bind tex");
        gl.set_uniform("u_tex", Value::Int(0)).expect("uniform");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).unwrap_err();
        assert!(err.to_string().contains("feedback"));
    }

    #[test]
    fn draw_without_program_fails() {
        let mut gl = Context::new(2, 2).expect("context");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
        assert!(err.to_string().contains("no program"));
    }

    #[test]
    fn draw_with_missing_attribute_fails() {
        let mut gl = Context::new(2, 2).expect("context");
        let prog = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        let err = gl.draw_arrays(PrimitiveMode::Triangles, 0, 3).unwrap_err();
        assert!(err.to_string().contains("a_pos"));
    }

    #[test]
    fn incomplete_fbo_blocks_draw_and_read() {
        let (mut gl, _) = quad_context(
            2,
            2,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        );
        let fbo = gl.create_framebuffer();
        gl.bind_framebuffer(Some(fbo)).expect("bind");
        assert!(gl.draw_arrays(PrimitiveMode::Triangles, 0, 6).is_err());
        assert!(gl.read_pixels(0, 0, 1, 1).is_err());
    }

    #[test]
    fn scissor_restricts_writes() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
        );
        gl.set_scissor(Some((0, 0, 2, 2)));
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.pixels_written, 4);
        gl.set_scissor(None);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        assert_eq!(&px[0..4], &[255, 255, 255, 255]);
        let off = (3 * 4 + 3) * 4;
        assert_eq!(&px[off..off + 4], &[0, 0, 0, 0]);
    }

    #[test]
    fn clear_fills_target() {
        let mut gl = Context::new(2, 2).expect("context");
        gl.set_clear_color([0.5, 0.0, 1.0, 1.0]);
        gl.clear().expect("clear");
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        for chunk in px.chunks_exact(4) {
            assert_eq!(chunk, &[127, 0, 255, 255]);
        }
    }

    #[test]
    fn discard_leaves_pixels_untouched() {
        let (mut gl, _) = quad_context(
            4,
            4,
            "precision highp float;\n\
             void main() {\n\
               if (gl_FragCoord.x < 2.0) discard;\n\
               gl_FragColor = vec4(1.0);\n\
             }",
        );
        gl.set_clear_color([0.0, 0.0, 0.0, 0.0]);
        gl.clear().expect("clear");
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(stats.fragments_shaded, 16);
        assert_eq!(stats.fragments_discarded, 8);
        assert_eq!(stats.pixels_written, 8);
        let px = gl.read_pixels(0, 0, 4, 4).expect("read");
        assert_eq!(&px[0..4], &[0, 0, 0, 0]); // discarded column
        assert_eq!(&px[8..12], &[255, 255, 255, 255]); // written column
    }

    #[test]
    fn parallel_dispatch_matches_serial() {
        let fs = "precision highp float;\nvarying vec2 v_uv;\n\
                  void main() { gl_FragColor = vec4(fract(v_uv * 13.7), fract(v_uv.x * 3.1), 1.0); }";
        let (mut gl1, _) = quad_context(16, 16, fs);
        gl1.set_dispatch(Dispatch::Serial);
        gl1.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw serial");
        let serial = gl1.read_pixels(0, 0, 16, 16).expect("read");

        let (mut gl2, _) = quad_context(16, 16, fs);
        gl2.set_dispatch(Dispatch::Parallel(4));
        gl2.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw parallel");
        let parallel = gl2.read_pixels(0, 0, 16, 16).expect("read");
        assert_eq!(serial, parallel);
    }

    /// Banding cases: `a_pos` carries clip xyz and `a_tag` a per-vertex
    /// tag the fragment shader reads.
    const VS_TAGGED: &str = "attribute vec3 a_pos;\nattribute float a_tag;\n\
        varying float v_tag;\n\
        void main() { v_tag = a_tag; gl_Position = vec4(a_pos, 1.0); }";

    /// Reads every per-fragment input a band must reproduce (an
    /// interpolated varying, `gl_FragCoord`, `gl_FrontFacing`) and
    /// discards a diagonal lattice.
    const FS_TAGGED: &str = "precision highp float;\nvarying float v_tag;\n\
        void main() {\n\
          if (mod(gl_FragCoord.x + gl_FragCoord.y, 5.0) < 1.0) discard;\n\
          float facing = gl_FrontFacing ? 1.0 : 0.25;\n\
          gl_FragColor = vec4(v_tag, facing, fract(gl_FragCoord.x * 0.11 + gl_FragCoord.y * 0.07), 1.0);\n\
        }";

    /// Indexes a 3-element array with `int(v_tag)` in rows above y = 8,
    /// and everywhere once the tag exceeds 6: tags 5.5 and 7.5 trap with
    /// distinguishable `IndexOutOfBounds` errors.
    const FS_TRAP: &str = "precision highp float;\nvarying float v_tag;\n\
        void main() {\n\
          float a[3];\n\
          a[0] = 0.0; a[1] = 0.5; a[2] = 1.0;\n\
          int i = (gl_FragCoord.y > 8.0 || v_tag > 6.0) ? int(v_tag) : 0;\n\
          gl_FragColor = vec4(a[i], 0.0, 0.0, 1.0);\n\
        }";

    /// One draw for the serial-vs-banded identity checks.
    struct BandCase {
        size: (u32, u32),
        mode: PrimitiveMode,
        /// `(x, y, z, tag)` per vertex.
        verts: Vec<[f32; 4]>,
        fs: &'static str,
        depth_test: bool,
        viewport: Option<(i32, i32, i32, i32)>,
        scissor: Option<(i32, i32, i32, i32)>,
    }

    impl BandCase {
        fn new(mode: PrimitiveMode, verts: Vec<[f32; 4]>) -> BandCase {
            BandCase {
                size: (16, 16),
                mode,
                verts,
                fs: FS_TAGGED,
                depth_test: false,
                viewport: None,
                scissor: None,
            }
        }

        fn draw(
            &self,
            dispatch: Dispatch,
            exec: ExecMode,
        ) -> (Result<DrawStats, GlError>, Vec<u8>) {
            let (w, h) = self.size;
            let mut gl = Context::new(w, h).expect("context");
            gl.set_dispatch(dispatch);
            gl.set_exec_mode(exec);
            gl.set_depth_test(self.depth_test);
            if let Some((x, y, vw, vh)) = self.viewport {
                gl.viewport(x, y, vw, vh);
            }
            gl.set_scissor(self.scissor);
            let prog = gl.create_program(VS_TAGGED, self.fs).expect("program");
            gl.use_program(prog).expect("use");
            let pos: Vec<f32> = self.verts.iter().flat_map(|v| [v[0], v[1], v[2]]).collect();
            let tags: Vec<f32> = self.verts.iter().map(|v| v[3]).collect();
            gl.set_attribute("a_pos", 3, &pos).expect("a_pos");
            gl.set_attribute("a_tag", 1, &tags).expect("a_tag");
            let result = gl.draw_arrays(self.mode, 0, self.verts.len());
            (result, gl.read_pixels(0, 0, w, h).expect("read"))
        }

        /// Draws under `Serial` and `Parallel(2 | 3 | 7)` with every
        /// executor: pixels and fragment-stage stats must match, or the
        /// draws must fail with the same error. Returns the serial SPMD
        /// draw for case-specific checks.
        fn assert_bands_match_serial(&self) -> (Result<DrawStats, GlError>, Vec<u8>) {
            let execs = [
                ExecMode::Spmd { lanes: 8 },
                ExecMode::Scalar,
                ExecMode::TreeWalker,
            ];
            for exec in execs {
                let (serial, serial_px) = self.draw(Dispatch::Serial, exec);
                for threads in [2, 3, 7] {
                    let (banded, px) = self.draw(Dispatch::Parallel(threads), exec);
                    let ctx = format!("{exec:?}, Parallel({threads})");
                    match (&serial, &banded) {
                        (Ok(s), Ok(b)) => {
                            assert_eq!(px, serial_px, "pixels: {ctx}");
                            assert_eq!(b.fragments_shaded, s.fragments_shaded, "{ctx}");
                            assert_eq!(b.fragments_discarded, s.fragments_discarded, "{ctx}");
                            assert_eq!(b.pixels_written, s.pixels_written, "{ctx}");
                            assert_eq!(b.fs_profile, s.fs_profile, "{ctx}");
                        }
                        (Err(s), Err(b)) => assert_eq!(b, s, "error: {ctx}"),
                        _ => panic!("{ctx}: serial {serial:?} vs banded {banded:?}"),
                    }
                }
            }
            self.draw(Dispatch::Serial, execs[0])
        }
    }

    /// Pixel `(x, y)`'s RGBA bytes in a `width`-wide readback.
    fn pixel_at(px: &[u8], width: u32, x: u32, y: u32) -> &[u8] {
        let i = 4 * (y * width + x) as usize;
        &px[i..i + 4]
    }

    /// Two triangles covering clip space with the given z and tag.
    fn tagged_quad(z: f32, tag: f32) -> Vec<[f32; 4]> {
        QUAD.chunks(2).map(|p| [p[0], p[1], z, tag]).collect()
    }

    #[test]
    fn banded_depth_tested_overlap_matches_serial() {
        let mut case = BandCase::new(
            PrimitiveMode::Triangles,
            vec![
                // Lower-left half, far.
                [-1.0, -1.0, 0.5, 0.25],
                [1.0, -1.0, 0.5, 0.25],
                [-1.0, 1.0, 0.5, 0.25],
                // Lower-right half, nearer and later: wins the overlap.
                [-1.0, -1.0, 0.0, 0.5],
                [1.0, -1.0, 0.0, 0.5],
                [1.0, 1.0, 0.0, 0.5],
                // Whole target, farthest: loses wherever a pixel was written.
                [-1.0, -1.0, 0.8, 0.75],
                [3.0, -1.0, 0.8, 0.75],
                [-1.0, 3.0, 0.8, 0.75],
            ],
        );
        case.depth_test = true;
        let (stats, px) = case.assert_bands_match_serial();
        assert_eq!(stats.expect("draw").triangles_rasterized, 3);
        // (8, 2) lies in both halves and off the discard lattice.
        assert!(pixel_at(&px, 16, 8, 2)[0].abs_diff(128) <= 1);
        // (2, 14) lies in neither half: only the far triangle covers it.
        assert!(pixel_at(&px, 16, 2, 14)[0].abs_diff(191) <= 1);
    }

    #[test]
    fn banded_mixed_winding_matches_serial() {
        let case = BandCase::new(
            PrimitiveMode::Triangles,
            vec![
                // Counter-clockwise lower-right half.
                [-1.0, -1.0, 0.0, 0.5],
                [1.0, -1.0, 0.0, 0.5],
                [1.0, 1.0, 0.0, 0.5],
                // Clockwise upper-left half.
                [-1.0, -1.0, 0.0, 0.5],
                [-1.0, 1.0, 0.0, 0.5],
                [1.0, 1.0, 0.0, 0.5],
            ],
        );
        let (_, px) = case.assert_bands_match_serial();
        assert_eq!(pixel_at(&px, 16, 12, 3)[1], 255, "front-facing");
        assert!(pixel_at(&px, 16, 3, 12)[1].abs_diff(64) <= 1, "back-facing");
    }

    #[test]
    fn banded_viewport_and_scissor_offsets_match_serial() {
        let mut case = BandCase::new(PrimitiveMode::Triangles, tagged_quad(0.0, 0.5));
        case.viewport = Some((3, 2, 10, 11));
        case.scissor = Some((4, 5, 7, 6));
        let (stats, px) = case.assert_bands_match_serial();
        let stats = stats.expect("draw");
        assert_eq!(stats.fragments_shaded, 7 * 6);
        assert_eq!(
            pixel_at(&px, 16, 3, 5),
            &[0, 0, 0, 0],
            "outside the scissor"
        );
    }

    #[test]
    fn banded_disjoint_row_spans_match_serial() {
        // A band between the two row spans has no rows to shade.
        let case = BandCase::new(
            PrimitiveMode::Triangles,
            vec![
                [-1.0, -1.0, 0.0, 0.25],
                [1.0, -1.0, 0.0, 0.25],
                [0.0, -0.5, 0.0, 0.25],
                [-1.0, 0.5, 0.0, 0.75],
                [1.0, 0.5, 0.0, 0.75],
                [0.0, 1.0, 0.0, 0.75],
            ],
        );
        let (stats, _) = case.assert_bands_match_serial();
        assert!(stats.expect("draw").fragments_shaded > 0);
    }

    #[test]
    fn banded_draw_with_fewer_rows_than_threads_matches_serial() {
        let mut case = BandCase::new(PrimitiveMode::Triangles, tagged_quad(0.0, 0.5));
        case.size = (16, 2);
        let (stats, _) = case.assert_bands_match_serial();
        assert_eq!(stats.expect("draw").fragments_shaded, 32);
    }

    #[test]
    fn banded_strip_and_fan_match_serial() {
        let strip = [
            [-1.0, -1.0],
            [-1.0, 1.0],
            [0.0, -1.0],
            [0.2, 1.0],
            [1.0, -0.6],
            [1.0, 1.0],
        ];
        let fan = [
            [0.1, -0.1],
            [1.0, -0.2],
            [0.6, 1.0],
            [-0.5, 0.9],
            [-1.0, -0.3],
            [-0.2, -1.0],
            [1.0, -0.2],
        ];
        for (mode, points) in [
            (PrimitiveMode::TriangleStrip, &strip[..]),
            (PrimitiveMode::TriangleFan, &fan[..]),
        ] {
            let verts = points
                .iter()
                .enumerate()
                .map(|(i, p)| [p[0], p[1], 0.0, i as f32 / 8.0])
                .collect();
            let (stats, _) = BandCase::new(mode, verts).assert_bands_match_serial();
            let triangles = points.len() as u32 - 2;
            assert_eq!(
                stats.expect("draw").triangles_rasterized,
                triangles,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn banded_shader_trap_matches_serial() {
        let trap = |first_tag: f32| {
            let mut verts = QUAD
                .chunks(2)
                .map(|p| [p[0], p[1], 0.0, 7.5])
                .collect::<Vec<_>>();
            for v in &mut verts[..3] {
                v[3] = first_tag;
            }
            let mut case = BandCase::new(PrimitiveMode::Triangles, verts);
            case.fs = FS_TRAP;
            case.assert_bands_match_serial().0.expect_err("draw traps")
        };
        // Only the second triangle traps.
        assert_eq!(
            trap(0.5),
            GlError::ShaderTrap(gpes_glsl::RuntimeError::IndexOutOfBounds { index: 7, len: 3 })
        );
        // The first triangle traps only in the upper rows, which a later
        // band shades, while the lowest band meets the second triangle's
        // trap: the serial walk's error (the first triangle's) still wins.
        assert_eq!(
            trap(5.5),
            GlError::ShaderTrap(gpes_glsl::RuntimeError::IndexOutOfBounds { index: 5, len: 3 })
        );
    }

    #[test]
    fn triangle_strip_quad_also_covers_once() {
        let mut gl = Context::new(8, 8).expect("context");
        let prog = gl
            .create_program(
                VS_QUAD,
                "precision highp float;\nvoid main() { gl_FragColor = vec4(1.0); }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        gl.set_attribute("a_pos", 2, &[-1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
            .expect("attrib");
        let stats = gl
            .draw_arrays(PrimitiveMode::TriangleStrip, 0, 4)
            .expect("draw");
        assert_eq!(stats.fragments_shaded, 64);
    }

    #[test]
    fn store_rounding_mode_changes_bytes() {
        let fs = "precision highp float;\nvoid main() { gl_FragColor = vec4(100.9 / 255.0); }";
        let (mut gl, _) = quad_context(1, 1, fs);
        gl.set_store_rounding(StoreRounding::Floor);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(gl.read_pixels(0, 0, 1, 1).expect("read")[0], 100);
        gl.set_store_rounding(StoreRounding::Nearest);
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw");
        assert_eq!(gl.read_pixels(0, 0, 1, 1).expect("read")[0], 101);
    }

    #[test]
    fn read_pixels_bounds_checked() {
        let gl = Context::new(4, 4).expect("context");
        assert!(gl.read_pixels(0, 0, 5, 1).is_err());
        assert!(gl.read_pixels(3, 3, 1, 1).is_ok());
    }

    #[test]
    fn deleted_texture_handle_is_stale() {
        let mut gl = Context::new(2, 2).expect("context");
        let tex = gl.create_texture();
        gl.delete_texture(tex);
        let err = gl.tex_storage(tex, TexFormat::Rgba8, 2, 2).unwrap_err();
        assert!(matches!(err, GlError::NoSuchObject { .. }));
    }

    #[test]
    fn depth_test_culls_farther_fragments() {
        let mut gl = Context::new(2, 2).expect("context");
        gl.set_depth_test(true);
        let prog = gl
            .create_program(
                "attribute vec3 a_pos;\n\
                 void main() { gl_Position = vec4(a_pos, 1.0); }",
                "precision highp float;\nuniform vec4 u_color;\n\
                 void main() { gl_FragColor = u_color; }",
            )
            .expect("program");
        gl.use_program(prog).expect("use");
        // Near quad (z = 0) in red.
        let near: Vec<f32> = [
            [-1.0, -1.0, 0.0],
            [1.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, -1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, 1.0, 0.0],
        ]
        .concat();
        gl.set_attribute("a_pos", 3, &near).expect("attrib");
        gl.set_uniform("u_color", Value::Vec4([1.0, 0.0, 0.0, 1.0]))
            .expect("uniform");
        gl.draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw near");
        // Far quad (z = 0.5) in green must lose the depth test.
        let far: Vec<f32> = near.chunks(3).flat_map(|v| [v[0], v[1], 0.5]).collect();
        gl.set_attribute("a_pos", 3, &far).expect("attrib");
        gl.set_uniform("u_color", Value::Vec4([0.0, 1.0, 0.0, 1.0]))
            .expect("uniform");
        let stats = gl
            .draw_arrays(PrimitiveMode::Triangles, 0, 6)
            .expect("draw far");
        assert_eq!(stats.pixels_written, 0);
        let px = gl.read_pixels(0, 0, 2, 2).expect("read");
        assert_eq!(&px[..4], &[255, 0, 0, 255]);
    }
}
