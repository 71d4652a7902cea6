//! SPMD lane-parallel virtual machine for lowered fragment shaders.
//!
//! One [`SpmdVm`] shades up to [`MAX_LANES`] fragments per dispatch. All
//! *semantic* state is per-lane, but it is stored **struct-of-arrays**:
//! each operand-stack slot, locals slot and global slot is one `Slot`
//! holding the value of every lane side by side (`[f32; 8]`,
//! `[[f32; 4]; 8]`, …). The bytecode walk (program counter plus an
//! explicit call-frame stack) is shared by every lane in the current
//! execution *context*, so instruction decode is paid once per batch and
//! the per-lane work for the common instructions is a tight loop over a
//! small typed array instead of eight tagged-enum manipulations.
//!
//! Slots whose lanes cannot be represented uniformly (samplers, arrays,
//! matrices, bvecs, or masked writes that change a slot's type for a
//! subset of lanes) degrade to `Slot::Boxed`, a boxed `[Value; 8]`
//! that preserves exact per-lane values; every instruction has a generic
//! per-lane fallback that applies the same `ops` / `builtins` routines as
//! the scalar VM.
//!
//! # Divergence model
//!
//! A context is `(lane mask, call frames, pc)`. When a data-dependent
//! branch (`JumpIfFalse` / `JumpIfTrue`, which is what `if`, `?:`,
//! short-circuit `&&`/`||` and loop conditions lower to) splits the
//! active lanes, the jumping subgroup is deferred onto a pending stack
//! and the fall-through subgroup keeps executing. Two contexts merge
//! whenever they meet at the same `(call frames, pc)` — this is always
//! semantically safe because every lane only ever executes instructions
//! its own data dictates; the shared pc is pure scheduling. Reconvergence
//! at the join point of structured `if`/`else` falls out of two rules:
//! the scheduler merges any pending context whose position equals the
//! current one, and after every jump landing it *swaps* to the
//! furthest-behind compatible pending context so laggards catch up.
//! `discard` simply retires the lanes of the executing context.
//!
//! Stack and locals writes are *wholesale* (the whole SoA slot is
//! replaced, every lane at once) whenever no deferred context can read
//! the slot again. The scheduler keeps two watermarks over the pending
//! contexts, updated whenever a context is deferred, merged or resumed:
//! `stack_live`, the highest pending `sp`, and `locals_live`, the highest
//! pending `frame_end`. A suspended context only reads the operand stack
//! below its own `sp` and locals below its own `frame_end`; every deeper
//! slot (a push, a callee frame, a declared local, which the lowerer
//! always initialises) it writes before reading. Lanes in no context
//! are retired and their stack and locals are dead. So a stack write at
//! index ≥ `stack_live`, or a locals write at index ≥ `locals_live`,
//! cannot destroy a value any lane will read, and it may clobber every
//! lane outside the current mask. With nothing pending both watermarks
//! are 0: the uniform-flow case, where every write is wholesale.
//!
//! Below the watermarks writes are *masked*: only the current context's
//! lanes change. A masked write that changes the slot's type boxes the
//! slot (`Slot::Boxed`, counted by [`SpmdVm::take_boxings`]) — that
//! only happens when live lanes genuinely hold values of different
//! types, such as a `bool` temporary of an `else` branch written over
//! the `float` result the deferred `then` lanes still hold. Globals are
//! always written masked, because retired lanes' outputs
//! (`gl_FragColor`) are read after the batch.
//!
//! # Bit-identity with the scalar VM
//!
//! Every fast path reproduces the scalar VM's arithmetic exactly — same
//! operation order, same [`FloatModel`] rounding calls, same
//! [`OpProfile`] counter increments — and anything outside the fast
//! paths runs the very same `ops` / `builtins` code
//! one lane at a time. There is no re-association, no fused math, and no
//! shared mutable value state, so results, profiles and runtime errors
//! are bit-identical per lane. When *any* lane traps, the whole batch is
//! replayed lane-by-lane in lane order (a single-lane run through this
//! machinery is exactly a scalar run): earlier lanes finish with exact
//! outputs and the first erroring lane in scalar order defines the
//! reported error, so error semantics match running the scalar VM over
//! the same fragments sequentially.

use crate::ast::{BinOp, ParamQual};
use crate::builtins::{self, BuiltinCx};
use crate::compile::{Executable, Insn, SlotRef};
use crate::error::RuntimeError;
use crate::exec::{ExecLimits, FloatModel, OpProfile, TextureAccess};
use crate::ops;
use crate::types::Scalar;
use crate::value::Value;
use crate::vm::store_path;

/// Maximum number of fragments one [`SpmdVm`] shades per batch.
pub const MAX_LANES: usize = 8;

/// A runtime error raised by one lane of a batch.
///
/// Produced by [`SpmdVm::run_batch`] after the lane-by-lane replay:
/// `lane` is the lowest-index erroring lane, every lane below it
/// completed with exact scalar outputs (see [`SpmdVm::completed`]).
#[derive(Debug)]
pub struct BatchError {
    /// The lowest lane index whose invocation trapped.
    pub lane: usize,
    /// The error that lane's scalar execution raises.
    pub error: RuntimeError,
}

/// Saved caller state for one active call, kept on the context's
/// explicit frame stack (the SPMD engine never recurses natively, so a
/// divergent subgroup can be suspended mid-call and resumed later).
#[derive(Clone, PartialEq)]
struct Frame {
    /// Chunk to resume in the caller.
    ret_chunk: u32,
    /// Instruction to resume at in the caller.
    ret_pc: usize,
    /// Caller's locals frame base.
    frame_base: usize,
    /// Caller's locals frame end (== callee's base).
    frame_end: usize,
    /// Callee's locals frame base.
    callee_base: usize,
    /// Index of the called function in `Executable::functions`.
    func: u32,
    /// Whether the call site expects out/inout copy-back pushes.
    pushes_outs: bool,
    /// Loop-counter stack depth at call entry (truncated on return,
    /// mirroring the scalar VM's `run_chunk`).
    counters_base: usize,
}

/// One schedulable execution context: a subgroup of lanes in lockstep at
/// a shared program position.
#[derive(Clone)]
struct Ctx {
    mask: u8,
    chunk: u32,
    pc: usize,
    sp: usize,
    frame_base: usize,
    frame_end: usize,
    frames: Vec<Frame>,
}

/// Whether two contexts sit at the same program point (and therefore may
/// merge). Operand-stack depth and loop depth are static properties of a
/// program point in the structured bytecode, so equal position implies
/// equal `sp` — asserted in debug builds.
fn same_point(a: &Ctx, b: &Ctx) -> bool {
    a.chunk == b.chunk && a.pc == b.pc && a.frames == b.frames
}

/// Merges every pending context at `cur`'s exact position into `cur`,
/// then repeatedly swaps `cur` with the furthest-behind pending context
/// of the same frame class so stragglers catch up (yielding `if`/`else`
/// reconvergence at the join point). Pure scheduling: any interleaving
/// of contexts is semantically correct.
fn reschedule(cur: &mut Ctx, pending: &mut Vec<Ctx>) {
    loop {
        let mut i = 0;
        while i < pending.len() {
            if same_point(&pending[i], cur) {
                debug_assert_eq!(pending[i].sp, cur.sp);
                debug_assert_eq!(pending[i].frame_base, cur.frame_base);
                cur.mask |= pending[i].mask;
                pending.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let mut behind: Option<usize> = None;
        for (j, p) in pending.iter().enumerate() {
            if p.chunk == cur.chunk && p.pc < cur.pc && p.frames == cur.frames {
                match behind {
                    Some(b) if pending[b].pc <= p.pc => {}
                    _ => behind = Some(j),
                }
            }
        }
        match behind {
            Some(j) => std::mem::swap(&mut pending[j], cur),
            None => break,
        }
    }
}

/// The pending contexts' live range `(stack_live, locals_live)`: the
/// highest `sp` and the highest `frame_end` among them. No pending
/// context reads a stack slot at or above the first, or a locals slot at
/// or above the second, before writing it, so writes there may be
/// wholesale (see the module docs).
fn live_range(pending: &[Ctx]) -> (usize, usize) {
    pending
        .iter()
        .fold((0, 0), |(s, l), p| (s.max(p.sp), l.max(p.frame_end)))
}

/// Iterates the set bits of a lane mask.
macro_rules! for_lanes {
    ($mask:expr, $lane:ident => $body:block) => {{
        let mut __m: u8 = $mask;
        while __m != 0 {
            let $lane = __m.trailing_zeros() as usize;
            __m &= __m - 1;
            $body
        }
    }};
}

/// A struct-of-arrays lane register: one stack/locals/global slot's
/// value for every lane. Typed variants keep the common scalar and
/// small-vector cases unboxed and contiguous; [`Slot::Boxed`] is the
/// exact fallback for every other value shape (and for slots whose
/// lanes diverge in type under masked writes).
#[derive(Clone)]
enum Slot {
    F([f32; MAX_LANES]),
    I([i32; MAX_LANES]),
    B([bool; MAX_LANES]),
    V2([[f32; 2]; MAX_LANES]),
    V3([[f32; 3]; MAX_LANES]),
    V4([[f32; 4]; MAX_LANES]),
    Boxed(Box<[Value; MAX_LANES]>),
}

impl Slot {
    /// A slot with `v` in every lane.
    fn splat(v: &Value) -> Slot {
        match v {
            Value::Float(x) => Slot::F([*x; MAX_LANES]),
            Value::Int(x) => Slot::I([*x; MAX_LANES]),
            Value::Bool(x) => Slot::B([*x; MAX_LANES]),
            Value::Vec2(x) => Slot::V2([*x; MAX_LANES]),
            Value::Vec3(x) => Slot::V3([*x; MAX_LANES]),
            Value::Vec4(x) => Slot::V4([*x; MAX_LANES]),
            other => Slot::Boxed(Box::new(std::array::from_fn(|_| other.clone()))),
        }
    }

    /// Materialises one lane's value.
    fn get(&self, lane: usize) -> Value {
        match self {
            Slot::F(x) => Value::Float(x[lane]),
            Slot::I(x) => Value::Int(x[lane]),
            Slot::B(x) => Value::Bool(x[lane]),
            Slot::V2(x) => Value::Vec2(x[lane]),
            Slot::V3(x) => Value::Vec3(x[lane]),
            Slot::V4(x) => Value::Vec4(x[lane]),
            Slot::Boxed(b) => b[lane].clone(),
        }
    }

    /// Writes one lane's value, preserving the other lanes. If the
    /// value's type no longer matches the slot's variant the slot is
    /// converted to [`Slot::Boxed`] (every lane kept), counted in
    /// `boxings`.
    fn set(&mut self, lane: usize, v: Value, boxings: &mut u64) {
        match (&mut *self, v) {
            (Slot::F(x), Value::Float(v)) => x[lane] = v,
            (Slot::I(x), Value::Int(v)) => x[lane] = v,
            (Slot::B(x), Value::Bool(v)) => x[lane] = v,
            (Slot::V2(x), Value::Vec2(v)) => x[lane] = v,
            (Slot::V3(x), Value::Vec3(v)) => x[lane] = v,
            (Slot::V4(x), Value::Vec4(v)) => x[lane] = v,
            (Slot::Boxed(b), v) => b[lane] = v,
            (slot, v) => {
                *boxings += 1;
                let mut b: Box<[Value; MAX_LANES]> = Box::new(std::array::from_fn(|l| slot.get(l)));
                b[lane] = v;
                *slot = Slot::Boxed(b);
            }
        }
    }

    /// Copies `mask` lanes from `src`, preserving the rest.
    fn copy_masked_from(&mut self, src: &Slot, mask: u8, boxings: &mut u64) {
        match (&mut *self, src) {
            (Slot::F(d), Slot::F(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::I(d), Slot::I(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::B(d), Slot::B(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V2(d), Slot::V2(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V3(d), Slot::V3(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::V4(d), Slot::V4(s)) => for_lanes!(mask, l => { d[l] = s[l]; }),
            (Slot::Boxed(d), Slot::Boxed(s)) => for_lanes!(mask, l => { d[l] = s[l].clone(); }),
            (dst, src) => for_lanes!(mask, l => { dst.set(l, src.get(l), boxings); }),
        }
    }

    /// Copies from `src`: wholesale when `wide` (no live lane outside
    /// `mask` — see the module docs), masked otherwise.
    fn write_from(&mut self, src: &Slot, mask: u8, wide: bool, boxings: &mut u64) {
        if wide {
            self.clone_from(src);
        } else {
            self.copy_masked_from(src, mask, boxings);
        }
    }

    /// Stores a freshly computed slot: replaces this one when `wide`,
    /// otherwise copies only the `mask` lanes in.
    fn put(&mut self, new: Slot, mask: u8, wide: bool, boxings: &mut u64) {
        if wide {
            *self = new;
        } else {
            self.copy_masked_from(&new, mask, boxings);
        }
    }

    /// Moves `src` in for the `mask` lanes. `src_dead` says no lane reads
    /// `src` again, so a wide move may swap instead of cloning.
    fn take_from(
        &mut self,
        src: &mut Slot,
        mask: u8,
        wide: bool,
        src_dead: bool,
        boxings: &mut u64,
    ) {
        if wide && src_dead {
            std::mem::swap(self, src);
        } else {
            self.write_from(src, mask, wide, boxings);
        }
    }

    /// Stores per-lane results of a generic path for the `mask` lanes.
    /// When `wide` the slot is rebuilt in the first lane's variant, so a
    /// result whose type differs from the old contents does not box it.
    fn put_values(
        &mut self,
        vals: &mut [Value; MAX_LANES],
        mask: u8,
        wide: bool,
        boxings: &mut u64,
    ) {
        if wide {
            let first = mask.trailing_zeros() as usize;
            *self = Slot::splat(&vals[first]);
        }
        for_lanes!(mask, l => {
            self.set(l, std::mem::replace(&mut vals[l], Value::Bool(false)), boxings);
        });
    }
}

/// Filler for the per-lane result buffers of the generic paths.
fn no_values() -> [Value; MAX_LANES] {
    std::array::from_fn(|_| Value::Bool(false))
}

/// Executes batches of up to [`MAX_LANES`] invocations of one lowered
/// fragment shader, bit-identical per lane to [`crate::vm::Vm`].
pub struct SpmdVm<'a> {
    exe: &'a Executable,
    textures: &'a dyn TextureAccess,
    model: FloatModel,
    limits: ExecLimits,
    lanes: usize,
    /// Global slot values, one SoA slot per global.
    globals: Vec<Slot>,
    /// (slot, initial value) for plain mutable globals.
    reset_list: Vec<(u32, Value)>,
    /// Operand stack, one SoA slot per depth, indexed by the context's
    /// shared `sp`.
    stack: Vec<Slot>,
    /// Locals frame arena, one SoA slot per local.
    locals: Vec<Slot>,
    /// Loop iteration counter stacks, per lane.
    loop_counters: Vec<Vec<u64>>,
    /// Per-lane op profiles, accumulated across batches (excludes the
    /// global-initialiser cost held in `init_profile`).
    profiles: Vec<OpProfile>,
    /// Cost of running the global initialisers, counted once per VM —
    /// exactly like the scalar VM counts chunk 0 once in `with_model`.
    init_profile: OpProfile,
    /// Per-lane profiles at the start of the current batch, restored
    /// before a lane-by-lane replay.
    batch_start_profiles: Vec<OpProfile>,
    /// Reusable per-lane argument buffer for generic builtin dispatch.
    arg_buf: Vec<Value>,
    discarded: [bool; MAX_LANES],
    wrote_frag_color: [bool; MAX_LANES],
    wrote_frag_data: [bool; MAX_LANES],
    completed: [bool; MAX_LANES],
    replays: u64,
    /// Typed slots converted to [`Slot::Boxed`] by a type-changing
    /// masked write since the last [`SpmdVm::take_boxings`].
    boxings: u64,
}

impl<'a> SpmdVm<'a> {
    /// Creates an SPMD VM with `lanes` lanes (clamped to
    /// `1..=`[`MAX_LANES`]) over a lowered shader, evaluating global
    /// initialisers once (profile-counted into [`SpmdVm::init_profile`])
    /// and broadcasting the results to every lane.
    ///
    /// # Errors
    ///
    /// Fails if a global initialiser fails to evaluate (same cases as
    /// [`crate::vm::Vm::with_model`]).
    pub fn with_model(
        exe: &'a Executable,
        textures: &'a dyn TextureAccess,
        model: FloatModel,
        lanes: usize,
    ) -> Result<Self, RuntimeError> {
        let lanes = lanes.clamp(1, MAX_LANES);
        let mut vm = SpmdVm {
            exe,
            textures,
            model,
            limits: ExecLimits::default(),
            lanes,
            globals: exe
                .globals
                .iter()
                .map(|g| Slot::splat(&Value::zero_of(&g.ty)))
                .collect(),
            reset_list: Vec::new(),
            stack: Vec::new(),
            locals: Vec::new(),
            loop_counters: vec![Vec::new(); lanes],
            profiles: vec![OpProfile::new(); lanes],
            init_profile: OpProfile::new(),
            batch_start_profiles: vec![OpProfile::new(); lanes],
            arg_buf: Vec::new(),
            discarded: [false; MAX_LANES],
            wrote_frag_color: [false; MAX_LANES],
            wrote_frag_data: [false; MAX_LANES],
            completed: [false; MAX_LANES],
            replays: 0,
            boxings: 0,
        };
        // A single-lane run through the SPMD engine is exactly a scalar
        // run; use it for chunk 0 on lane 0, then broadcast.
        vm.exec(1, 0)?;
        vm.init_profile = std::mem::take(&mut vm.profiles[0]);
        for slot in &mut vm.globals {
            let v = slot.get(0);
            *slot = Slot::splat(&v);
        }
        vm.reset_list = exe
            .reset_slots
            .iter()
            .map(|&slot| (slot, vm.globals[slot as usize].get(0)))
            .collect();
        Ok(vm)
    }

    /// Replaces the execution limits.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// Number of lanes this VM shades per full batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Sets a global by name on **every** lane (uniforms and other
    /// batch-invariant inputs).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unbound`] if no such global exists.
    pub fn set_global(&mut self, name: &str, value: Value) -> Result<(), RuntimeError> {
        match self.exe.global_slot(name) {
            Some(slot) => {
                self.set_slot_all(slot, value);
                Ok(())
            }
            None => Err(RuntimeError::Unbound { name: name.into() }),
        }
    }

    /// Sets a global by pre-resolved slot on every lane.
    pub fn set_slot_all(&mut self, slot: u32, value: Value) {
        self.globals[slot as usize] = Slot::splat(&value);
    }

    /// Sets a global by pre-resolved slot on one lane (per-fragment
    /// inputs: varyings, `gl_FragCoord`).
    pub fn set_lane_slot(&mut self, lane: usize, slot: u32, value: Value) {
        self.globals[slot as usize].set(lane, value, &mut self.boxings);
    }

    /// Resolves a global name to its slot (see
    /// [`Executable::global_slot`]).
    pub fn global_slot(&self, name: &str) -> Option<u32> {
        self.exe.global_slot(name)
    }

    /// Reads a lane's global by name (materialised out of the SoA slot).
    pub fn global(&self, lane: usize, name: &str) -> Option<Value> {
        self.exe
            .global_slot(name)
            .map(|slot| self.globals[slot as usize].get(lane))
    }

    /// Whether `lane` executed `discard` in the last batch.
    pub fn discarded(&self, lane: usize) -> bool {
        self.discarded[lane]
    }

    /// Whether `lane` wrote `gl_FragColor` / `gl_FragData` in the last
    /// batch.
    pub fn wrote_outputs(&self, lane: usize) -> (bool, bool) {
        (self.wrote_frag_color[lane], self.wrote_frag_data[lane])
    }

    /// Whether `lane` ran to completion in the last batch (false only
    /// for the erroring lane and lanes above it when
    /// [`SpmdVm::run_batch`] returned a [`BatchError`]).
    pub fn completed(&self, lane: usize) -> bool {
        self.completed[lane]
    }

    /// The fragment colour `lane` produced in the last batch, honouring
    /// whether the shader used `gl_FragColor` or `gl_FragData[0]`.
    pub fn frag_color(&self, lane: usize) -> Option<[f32; 4]> {
        if self.wrote_frag_data[lane] {
            match self.global(lane, "gl_FragData") {
                Some(Value::Array(elems)) => elems.first().and_then(Value::as_vec4),
                _ => None,
            }
        } else {
            self.global(lane, "gl_FragColor").and_then(|v| v.as_vec4())
        }
    }

    /// One lane's accumulated profile (excluding the shared
    /// global-initialiser cost; add [`SpmdVm::init_profile`] to compare
    /// against a dedicated scalar VM's total).
    pub fn lane_profile(&self, lane: usize) -> OpProfile {
        self.profiles[lane]
    }

    /// The global-initialiser profile, counted once per VM.
    pub fn init_profile(&self) -> OpProfile {
        self.init_profile
    }

    /// Accumulated profile over all lanes plus the initialiser cost —
    /// identical to a scalar VM's [`crate::vm::Vm::profile`] after
    /// shading the same fragments sequentially.
    pub fn profile(&self) -> OpProfile {
        let mut total = self.init_profile;
        for p in &self.profiles {
            total.merge(p);
        }
        total
    }

    /// Resets the accumulated profile (all lanes and the initialiser
    /// share) and returns the previous total.
    pub fn take_profile(&mut self) -> OpProfile {
        let total = self.profile();
        self.init_profile = OpProfile::new();
        for p in &mut self.profiles {
            *p = OpProfile::new();
        }
        total
    }

    /// Number of batches that trapped and were replayed lane-by-lane
    /// since the last call (the rasteriser reports these as scalar
    /// fallbacks).
    pub fn take_replays(&mut self) -> u64 {
        std::mem::take(&mut self.replays)
    }

    /// Number of typed stack, locals or global slots converted to the
    /// boxed per-lane representation since the last call: each one sends
    /// the instructions that touch that slot down the generic per-lane
    /// paths. Only a masked write whose type differs from values other
    /// live lanes hold in the slot boxes it (see the module docs).
    pub fn take_boxings(&mut self) -> u64 {
        std::mem::take(&mut self.boxings)
    }

    /// Runs `main()` once on lanes `0..active`.
    ///
    /// On success every lane completed (check [`SpmdVm::discarded`] and
    /// read [`SpmdVm::frag_color`] per lane). If any lane traps, the
    /// batch is replayed lane-by-lane so outputs, profiles and the
    /// reported error match scalar execution exactly.
    ///
    /// # Errors
    ///
    /// [`BatchError`] carrying the lowest-index erroring lane and its
    /// scalar-order [`RuntimeError`].
    pub fn run_batch(&mut self, active: usize) -> Result<(), BatchError> {
        assert!(active >= 1 && active <= self.lanes, "bad batch width");
        let mask = ((1u16 << active) - 1) as u8;
        self.batch_start_profiles[..active].copy_from_slice(&self.profiles[..active]);
        for lane in 0..active {
            self.begin_invocation(lane);
        }
        self.completed[..active].fill(false);
        match self.exec(mask, self.exe.main_chunk) {
            Ok(()) => {
                self.completed[..active].fill(true);
                Ok(())
            }
            Err(_) => {
                // Lockstep state is torn mid-instruction; discard it and
                // replay each lane alone, which is exactly scalar.
                self.replays += 1;
                self.profiles[..active].copy_from_slice(&self.batch_start_profiles[..active]);
                for lane in 0..active {
                    self.begin_invocation(lane);
                    match self.exec(1 << lane, self.exe.main_chunk) {
                        Ok(()) => self.completed[lane] = true,
                        Err(error) => return Err(BatchError { lane, error }),
                    }
                }
                Ok(())
            }
        }
    }

    /// Per-invocation reset for one lane, mirroring the scalar VM's
    /// `run_main` prologue.
    fn begin_invocation(&mut self, lane: usize) {
        self.discarded[lane] = false;
        self.wrote_frag_color[lane] = false;
        self.wrote_frag_data[lane] = false;
        self.loop_counters[lane].clear();
        for (slot, value) in &self.reset_list {
            self.globals[*slot as usize].set(lane, value.clone(), &mut self.boxings);
        }
        self.profiles[lane].invocations += 1;
    }

    /// Grows the operand stack to at least `need` slots.
    fn ensure_stack(&mut self, need: usize) {
        if self.stack.len() < need {
            self.stack.resize(need, Slot::B([false; MAX_LANES]));
        }
    }

    /// Grows the locals arena to at least `need` slots.
    fn ensure_locals(&mut self, need: usize) {
        if self.locals.len() < need {
            self.locals.resize(need, Slot::F([0.0; MAX_LANES]));
        }
    }

    /// Applies a binary operator to the slots at `sp-2`/`sp-1` via the
    /// typed fast paths, writing the result to `sp-2`. Returns `false`
    /// (with no state mutated) when the operand shapes need the generic
    /// per-lane path.
    fn binary_fast(&mut self, op: BinOp, sp: usize, mask: u8, wide: bool) -> bool {
        use BinOp::*;
        let model = self.model;
        let is_arith = matches!(op, Add | Sub | Mul | Div);
        let fop = move |x: f32, y: f32| match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            _ => 0.0,
        };
        let (lo, hi) = self.stack.split_at_mut(sp - 1);
        let a = &mut lo[sp - 2];
        let b = &hi[0];
        macro_rules! bump_alu {
            ($n:expr) => {
                for_lanes!(mask, l => { self.profiles[l].alu_ops += $n; })
            };
        }
        macro_rules! vec_vec {
            ($x:ident, $y:ident, $n:expr) => {{
                if !is_arith {
                    return false;
                }
                if wide {
                    for i in 0..MAX_LANES {
                        for c in 0..$n {
                            $x[i][c] = model.round_alu(fop($x[i][c], $y[i][c]));
                        }
                    }
                } else {
                    for_lanes!(mask, l => {
                        for c in 0..$n {
                            $x[l][c] = model.round_alu(fop($x[l][c], $y[l][c]));
                        }
                    });
                }
                bump_alu!($n);
                true
            }};
        }
        macro_rules! vec_scalar {
            ($x:ident, $y:ident, $n:expr) => {{
                if !is_arith {
                    return false;
                }
                if wide {
                    for i in 0..MAX_LANES {
                        for c in 0..$n {
                            $x[i][c] = model.round_alu(fop($x[i][c], $y[i]));
                        }
                    }
                } else {
                    for_lanes!(mask, l => {
                        for c in 0..$n {
                            $x[l][c] = model.round_alu(fop($x[l][c], $y[l]));
                        }
                    });
                }
                bump_alu!($n);
                true
            }};
        }
        match (&mut *a, b) {
            (Slot::F(x), Slot::F(y)) => {
                if is_arith {
                    if wide {
                        for i in 0..MAX_LANES {
                            x[i] = model.round_alu(fop(x[i], y[i]));
                        }
                    } else {
                        for_lanes!(mask, l => { x[l] = model.round_alu(fop(x[l], y[l])); });
                    }
                    bump_alu!(1);
                    return true;
                }
                match op {
                    Lt | Le | Gt | Ge | Eq | Ne => {
                        let mut r = [false; MAX_LANES];
                        for_lanes!(mask, l => {
                            r[l] = match op {
                                Lt => x[l] < y[l],
                                Le => x[l] <= y[l],
                                Gt => x[l] > y[l],
                                Ge => x[l] >= y[l],
                                Eq => x[l] == y[l],
                                _ => x[l] != y[l],
                            };
                        });
                        bump_alu!(1);
                        a.put(Slot::B(r), mask, wide, &mut self.boxings);
                        true
                    }
                    _ => false,
                }
            }
            (Slot::I(x), Slot::I(y)) => {
                if is_arith {
                    let g = move |x: i32, y: i32| match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        _ => {
                            if y == 0 {
                                0
                            } else {
                                x.wrapping_div(y)
                            }
                        }
                    };
                    if wide {
                        for i in 0..MAX_LANES {
                            x[i] = g(x[i], y[i]);
                        }
                    } else {
                        for_lanes!(mask, l => { x[l] = g(x[l], y[l]); });
                    }
                    bump_alu!(1);
                    return true;
                }
                match op {
                    Lt | Le | Gt | Ge | Eq | Ne => {
                        let mut r = [false; MAX_LANES];
                        for_lanes!(mask, l => {
                            r[l] = match op {
                                Lt => x[l] < y[l],
                                Le => x[l] <= y[l],
                                Gt => x[l] > y[l],
                                Ge => x[l] >= y[l],
                                Eq => x[l] == y[l],
                                _ => x[l] != y[l],
                            };
                        });
                        bump_alu!(1);
                        a.put(Slot::B(r), mask, wide, &mut self.boxings);
                        true
                    }
                    _ => false,
                }
            }
            (Slot::B(x), Slot::B(y)) => match op {
                And => {
                    for_lanes!(mask, l => { x[l] = x[l] && y[l]; });
                    true
                }
                Or => {
                    for_lanes!(mask, l => { x[l] = x[l] || y[l]; });
                    true
                }
                Xor => {
                    for_lanes!(mask, l => { x[l] = x[l] != y[l]; });
                    true
                }
                Eq => {
                    for_lanes!(mask, l => { x[l] = x[l] == y[l]; });
                    bump_alu!(1);
                    true
                }
                Ne => {
                    for_lanes!(mask, l => { x[l] = x[l] != y[l]; });
                    bump_alu!(1);
                    true
                }
                _ => false,
            },
            (Slot::V2(x), Slot::V2(y)) => vec_vec!(x, y, 2),
            (Slot::V3(x), Slot::V3(y)) => vec_vec!(x, y, 3),
            (Slot::V4(x), Slot::V4(y)) => vec_vec!(x, y, 4),
            (Slot::V2(x), Slot::F(y)) => vec_scalar!(x, y, 2),
            (Slot::V3(x), Slot::F(y)) => vec_scalar!(x, y, 3),
            (Slot::V4(x), Slot::F(y)) => vec_scalar!(x, y, 4),
            _ => false,
        }
    }

    /// Generic per-lane binary operator: materialises both operands and
    /// applies the scalar VM's [`ops::apply_binary`] exactly.
    fn binary_generic(
        &mut self,
        op: BinOp,
        sp: usize,
        mask: u8,
        wide: bool,
    ) -> Result<(), RuntimeError> {
        let mut out = no_values();
        for_lanes!(mask, l => {
            let bv = self.stack[sp - 1].get(l);
            let av = self.stack[sp - 2].get(l);
            out[l] = ops::apply_binary(self.model, &mut self.profiles[l], op, av, bv)?;
        });
        self.stack[sp - 2].put_values(&mut out, mask, wide, &mut self.boxings);
        Ok(())
    }

    /// SoA fast paths for the hot builtins and constructors, replicating
    /// [`crate::builtins::call`]'s values, rounding and profile counts
    /// exactly. Returns `false` (with no state mutated) when the call
    /// must take the generic per-lane path — including every case where
    /// the scalar builtin would error.
    #[allow(clippy::type_complexity)] // fn-pointer dispatch tables
    fn fast_builtin(&mut self, name: &str, s: usize, argc: usize, mask: u8, wide: bool) -> bool {
        use std::f32::consts::PI;
        let model = self.model;

        // Component-wise unary genType builtins.
        if argc == 1 {
            let m1: Option<(fn(f32) -> f32, bool)> = match name {
                "radians" => Some((|v| v * (PI / 180.0), false)),
                "degrees" => Some((|v| v * (180.0 / PI), false)),
                "sin" => Some((f32::sin, true)),
                "cos" => Some((f32::cos, true)),
                "tan" => Some((f32::tan, true)),
                "asin" => Some((f32::asin, true)),
                "acos" => Some((f32::acos, true)),
                "atan" => Some((f32::atan, true)),
                "exp" => Some((f32::exp, true)),
                "log" => Some((f32::ln, true)),
                "exp2" => Some((builtins::exp2_f32, true)),
                "log2" => Some((f32::log2, true)),
                "sqrt" => Some((f32::sqrt, true)),
                "inversesqrt" => Some((|v| 1.0 / v.sqrt(), true)),
                "abs" => Some((f32::abs, false)),
                "sign" => Some((
                    |v| {
                        if v > 0.0 {
                            1.0
                        } else if v < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    },
                    false,
                )),
                "floor" => Some((f32::floor, false)),
                "ceil" => Some((f32::ceil, false)),
                "fract" => Some((|v| v - v.floor(), false)),
                _ => None,
            };
            if let Some((f, sfu)) = m1 {
                let round = move |v: f32| {
                    if sfu {
                        model.round_sfu(v)
                    } else {
                        model.round_alu(v)
                    }
                };
                macro_rules! m1_vec {
                    ($x:ident, $n:expr) => {{
                        if wide {
                            for i in 0..MAX_LANES {
                                for c in 0..$n {
                                    $x[i][c] = round(f($x[i][c]));
                                }
                            }
                        } else {
                            for_lanes!(mask, l => {
                                for c in 0..$n {
                                    $x[l][c] = round(f($x[l][c]));
                                }
                            });
                        }
                        for_lanes!(mask, l => {
                            if sfu {
                                self.profiles[l].sfu_ops += $n;
                            } else {
                                self.profiles[l].alu_ops += $n;
                            }
                        });
                        true
                    }};
                }
                return match &mut self.stack[s] {
                    Slot::F(x) => {
                        if wide {
                            for v in x.iter_mut() {
                                *v = round(f(*v));
                            }
                        } else {
                            for_lanes!(mask, l => { x[l] = round(f(x[l])); });
                        }
                        for_lanes!(mask, l => {
                            if sfu {
                                self.profiles[l].sfu_ops += 1;
                            } else {
                                self.profiles[l].alu_ops += 1;
                            }
                        });
                        true
                    }
                    Slot::V2(x) => m1_vec!(x, 2),
                    Slot::V3(x) => m1_vec!(x, 3),
                    Slot::V4(x) => m1_vec!(x, 4),
                    _ => false,
                };
            }
        }

        // Component-wise binary genType builtins (scalar second operand
        // broadcasts, matching `builtins::map2`).
        if argc == 2 {
            let m2: Option<(fn(f32, f32) -> f32, bool)> = match name {
                "mod" => Some((builtins::glsl_mod, false)),
                "min" => Some((f32::min, false)),
                "max" => Some((f32::max, false)),
                "pow" => Some((f32::powf, true)),
                "atan" => Some((f32::atan2, true)),
                _ => None,
            };
            if let Some((f, sfu)) = m2 {
                let round = move |v: f32| {
                    if sfu {
                        model.round_sfu(v)
                    } else {
                        model.round_alu(v)
                    }
                };
                let (lo, hi) = self.stack.split_at_mut(s + 1);
                let a = &mut lo[s];
                let b = &hi[0];
                macro_rules! m2_bump {
                    ($n:expr) => {
                        for_lanes!(mask, l => {
                            if sfu {
                                self.profiles[l].sfu_ops += $n;
                            } else {
                                self.profiles[l].alu_ops += $n;
                            }
                        })
                    };
                }
                macro_rules! m2_vec_vec {
                    ($x:ident, $y:ident, $n:expr) => {{
                        if wide {
                            for i in 0..MAX_LANES {
                                for c in 0..$n {
                                    $x[i][c] = round(f($x[i][c], $y[i][c]));
                                }
                            }
                        } else {
                            for_lanes!(mask, l => {
                                for c in 0..$n {
                                    $x[l][c] = round(f($x[l][c], $y[l][c]));
                                }
                            });
                        }
                        m2_bump!($n);
                        true
                    }};
                }
                macro_rules! m2_vec_scalar {
                    ($x:ident, $y:ident, $n:expr) => {{
                        if wide {
                            for i in 0..MAX_LANES {
                                for c in 0..$n {
                                    $x[i][c] = round(f($x[i][c], $y[i]));
                                }
                            }
                        } else {
                            for_lanes!(mask, l => {
                                for c in 0..$n {
                                    $x[l][c] = round(f($x[l][c], $y[l]));
                                }
                            });
                        }
                        m2_bump!($n);
                        true
                    }};
                }
                return match (&mut *a, b) {
                    (Slot::F(x), Slot::F(y)) => {
                        if wide {
                            for i in 0..MAX_LANES {
                                x[i] = round(f(x[i], y[i]));
                            }
                        } else {
                            for_lanes!(mask, l => { x[l] = round(f(x[l], y[l])); });
                        }
                        m2_bump!(1);
                        true
                    }
                    (Slot::V2(x), Slot::V2(y)) => m2_vec_vec!(x, y, 2),
                    (Slot::V3(x), Slot::V3(y)) => m2_vec_vec!(x, y, 3),
                    (Slot::V4(x), Slot::V4(y)) => m2_vec_vec!(x, y, 4),
                    (Slot::V2(x), Slot::F(y)) => m2_vec_scalar!(x, y, 2),
                    (Slot::V3(x), Slot::F(y)) => m2_vec_scalar!(x, y, 3),
                    (Slot::V4(x), Slot::F(y)) => m2_vec_scalar!(x, y, 4),
                    _ => false,
                };
            }

            // step(edge, x): no rounding, alu += x's component count.
            if name == "step" {
                let (lo, hi) = self.stack.split_at_mut(s + 1);
                let a = &mut lo[s];
                let b = &hi[0];
                macro_rules! step_vec {
                    ($x:ident, $n:expr, $edge:expr) => {{
                        let mut out = [[0.0f32; 4]; MAX_LANES];
                        for_lanes!(mask, l => {
                            for c in 0..$n {
                                let edge = $edge(l, c);
                                out[l][c] = if $x[l][c] < edge { 0.0 } else { 1.0 };
                            }
                            self.profiles[l].alu_ops += $n;
                        });
                        self.write_vec_result(s, $n, &out, mask, wide);
                        true
                    }};
                }
                return match (&mut *a, b) {
                    (Slot::F(e), Slot::F(x)) => {
                        for_lanes!(mask, l => {
                            e[l] = if x[l] < e[l] { 0.0 } else { 1.0 };
                            self.profiles[l].alu_ops += 1;
                        });
                        true
                    }
                    (Slot::F(e), Slot::V2(x)) => step_vec!(x, 2, |l: usize, _c: usize| e[l]),
                    (Slot::F(e), Slot::V3(x)) => step_vec!(x, 3, |l: usize, _c: usize| e[l]),
                    (Slot::F(e), Slot::V4(x)) => step_vec!(x, 4, |l: usize, _c: usize| e[l]),
                    (Slot::V2(e), Slot::V2(x)) => step_vec!(x, 2, |l: usize, c: usize| e[l][c]),
                    (Slot::V3(e), Slot::V3(x)) => step_vec!(x, 3, |l: usize, c: usize| e[l][c]),
                    (Slot::V4(e), Slot::V4(x)) => step_vec!(x, 4, |l: usize, c: usize| e[l][c]),
                    _ => false,
                };
            }

            // dot(a, b): chained rounding, alu += 2n.
            if name == "dot" {
                let (lo, hi) = self.stack.split_at_mut(s + 1);
                let a = &mut lo[s];
                let b = &hi[0];
                macro_rules! dot_vec {
                    ($x:ident, $y:ident, $n:expr) => {{
                        let mut out = [0.0f32; MAX_LANES];
                        for_lanes!(mask, l => {
                            let mut acc = 0.0f32;
                            for c in 0..$n {
                                acc = model.round_alu(acc + model.round_alu($x[l][c] * $y[l][c]));
                            }
                            out[l] = acc;
                            self.profiles[l].alu_ops += 2 * $n;
                        });
                        a.put(Slot::F(out), mask, wide, &mut self.boxings);
                        true
                    }};
                }
                return match (&mut *a, b) {
                    (Slot::V2(x), Slot::V2(y)) => dot_vec!(x, y, 2),
                    (Slot::V3(x), Slot::V3(y)) => dot_vec!(x, y, 3),
                    (Slot::V4(x), Slot::V4(y)) => dot_vec!(x, y, 4),
                    _ => false,
                };
            }

            // texture2D(sampler, vec2): one fetch per lane.
            if name == "texture2D" {
                let (sampler, coord) = (&self.stack[s], &self.stack[s + 1]);
                let (Slot::Boxed(units), Slot::V2(coords)) = (sampler, coord) else {
                    return false;
                };
                let mut ok = true;
                for_lanes!(mask, l => {
                    ok &= matches!(units[l], Value::Sampler(_));
                });
                if !ok {
                    return false;
                }
                let mut out = [[0.0f32; 4]; MAX_LANES];
                for_lanes!(mask, l => {
                    let Value::Sampler(unit) = units[l] else { unreachable!() };
                    out[l] = self.textures.sample(unit, coords[l]);
                    self.profiles[l].tex_fetches += 1;
                });
                self.write_vec_result(s, 4, &out, mask, wide);
                return true;
            }
        }

        // clamp / mix on genTypes: alu += 2n, one rounding per component.
        if argc == 3 && (name == "clamp" || name == "mix") {
            let f: fn(f32, f32, f32) -> f32 = if name == "clamp" {
                |v, lo, hi| v.max(lo).min(hi)
            } else {
                |p, q, t| p * (1.0 - t) + q * t
            };
            macro_rules! m3_get {
                ($slot:expr, $l:ident, $c:ident, $n:expr) => {
                    match $slot {
                        Slot::F(x) => x[$l],
                        Slot::V2(x) if $n == 2 => x[$l][$c],
                        Slot::V3(x) if $n == 3 => x[$l][$c],
                        Slot::V4(x) if $n == 4 => x[$l][$c],
                        _ => unreachable!(),
                    }
                };
            }
            let compatible = |slot: &Slot, n: usize| {
                matches!(
                    (slot, n),
                    (Slot::F(_), _) | (Slot::V2(_), 2) | (Slot::V3(_), 3) | (Slot::V4(_), 4)
                )
            };
            let n = match &self.stack[s] {
                Slot::F(_) => 1,
                Slot::V2(_) => 2,
                Slot::V3(_) => 3,
                Slot::V4(_) => 4,
                _ => return false,
            };
            if !compatible(&self.stack[s + 1], n) || !compatible(&self.stack[s + 2], n) {
                return false;
            }
            let mut out = [[0.0f32; 4]; MAX_LANES];
            for_lanes!(mask, l => {
                for c in 0..n {
                    let x = m3_get!(&self.stack[s], l, c, n);
                    let b = m3_get!(&self.stack[s + 1], l, c, n);
                    let cc = m3_get!(&self.stack[s + 2], l, c, n);
                    out[l][c] = model.round_alu(f(x, b, cc));
                }
                self.profiles[l].alu_ops += 2 * n as u64;
            });
            if n == 1 {
                let r = Slot::F(std::array::from_fn(|l| out[l][0]));
                self.stack[s].put(r, mask, wide, &mut self.boxings);
            } else {
                self.write_vec_result(s, n, &out, mask, wide);
            }
            return true;
        }

        // float()/int() scalar conversions and vecN constructors.
        match name {
            "float" | "int" if argc == 1 => {
                let to_int = name == "int";
                let mut out = [0.0f32; MAX_LANES];
                let comps = match &self.stack[s] {
                    Slot::F(x) => {
                        for_lanes!(mask, l => { out[l] = x[l]; });
                        1u64
                    }
                    Slot::I(x) => {
                        for_lanes!(mask, l => { out[l] = x[l] as f32; });
                        1
                    }
                    Slot::V2(x) => {
                        for_lanes!(mask, l => { out[l] = x[l][0]; });
                        2
                    }
                    Slot::V3(x) => {
                        for_lanes!(mask, l => { out[l] = x[l][0]; });
                        3
                    }
                    Slot::V4(x) => {
                        for_lanes!(mask, l => { out[l] = x[l][0]; });
                        4
                    }
                    _ => return false,
                };
                for_lanes!(mask, l => { self.profiles[l].alu_ops += comps; });
                let r = if to_int {
                    Slot::I(std::array::from_fn(|l| out[l] as i32))
                } else {
                    Slot::F(out)
                };
                self.stack[s].put(r, mask, wide, &mut self.boxings);
                true
            }
            "vec2" | "vec3" | "vec4" => {
                let dim = match name {
                    "vec2" => 2usize,
                    "vec3" => 3,
                    _ => 4,
                };
                let mut total = 0usize;
                for k in 0..argc {
                    total += match &self.stack[s + k] {
                        Slot::F(_) | Slot::I(_) => 1,
                        Slot::V2(_) => 2,
                        Slot::V3(_) => 3,
                        Slot::V4(_) => 4,
                        _ => return false,
                    };
                }
                // Mirrors `builtins::build`: exact fill, single-scalar
                // splat, or single-argument truncation; anything else
                // errors in the scalar VM, so take the generic path.
                if !(total == dim || total == 1 || (total > dim && argc == 1)) {
                    return false;
                }
                let mut out = [[0.0f32; 4]; MAX_LANES];
                for_lanes!(mask, l => {
                    let mut buf = [0.0f32; 16];
                    let mut k = 0usize;
                    for arg in 0..argc {
                        match &self.stack[s + arg] {
                            Slot::F(x) => {
                                buf[k] = x[l];
                                k += 1;
                            }
                            Slot::I(x) => {
                                buf[k] = x[l] as f32;
                                k += 1;
                            }
                            Slot::V2(x) => {
                                buf[k..k + 2].copy_from_slice(&x[l]);
                                k += 2;
                            }
                            Slot::V3(x) => {
                                buf[k..k + 3].copy_from_slice(&x[l]);
                                k += 3;
                            }
                            Slot::V4(x) => {
                                buf[k..k + 4].copy_from_slice(&x[l]);
                                k += 4;
                            }
                            _ => unreachable!(),
                        }
                    }
                    if total == 1 {
                        out[l] = [buf[0]; 4];
                    } else {
                        out[l][..dim].copy_from_slice(&buf[..dim]);
                    }
                    self.profiles[l].alu_ops += total as u64;
                });
                self.write_vec_result(s, dim, &out, mask, wide);
                true
            }
            _ => false,
        }
    }

    /// Writes an `n`-component float vector result (per lane, padded to
    /// 4 components) into stack slot `s`.
    fn write_vec_result(
        &mut self,
        s: usize,
        n: usize,
        out: &[[f32; 4]; MAX_LANES],
        mask: u8,
        wide: bool,
    ) {
        let r = match n {
            2 => Slot::V2(std::array::from_fn(|l| [out[l][0], out[l][1]])),
            3 => Slot::V3(std::array::from_fn(|l| [out[l][0], out[l][1], out[l][2]])),
            _ => Slot::V4(*out),
        };
        self.stack[s].put(r, mask, wide, &mut self.boxings);
    }

    /// Runs `chunk` to completion for the lanes in `mask`, scheduling
    /// divergent contexts as described in the module docs. On error the
    /// per-lane state is torn (the caller replays); a single-lane call
    /// is exact scalar execution.
    fn exec(&mut self, mask: u8, start_chunk: u32) -> Result<(), RuntimeError> {
        let exe = self.exe;
        let mut cur = Ctx {
            mask,
            chunk: start_chunk,
            pc: 0,
            sp: 0,
            frame_base: 0,
            frame_end: exe.chunks[start_chunk as usize].frame_size as usize,
            frames: Vec::new(),
        };
        self.ensure_locals(cur.frame_end);
        let mut pending: Vec<Ctx> = Vec::new();
        // The pending contexts' live range (see `live_range`): stack
        // writes at or above `stack_live` and locals writes at or above
        // `locals_live` are wholesale. Refreshed at every scheduling
        // event that changes `pending`.
        let (mut stack_live, mut locals_live) = (0usize, 0usize);

        macro_rules! next_ctx {
            () => {{
                match pending.pop() {
                    Some(p) => {
                        cur = p;
                        (stack_live, locals_live) = live_range(&pending);
                        continue;
                    }
                    None => return Ok(()),
                }
            }};
        }

        loop {
            // Merge any pending context that has caught up to `cur`.
            if !pending.is_empty() {
                let before = pending.len();
                let mut i = 0;
                while i < pending.len() {
                    if same_point(&pending[i], &cur) {
                        debug_assert_eq!(pending[i].sp, cur.sp);
                        cur.mask |= pending[i].mask;
                        pending.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                if pending.len() != before {
                    (stack_live, locals_live) = live_range(&pending);
                }
            }
            let code = &exe.chunks[cur.chunk as usize].code;
            if cur.pc >= code.len() {
                // Fell off the end: only the initialiser chunk and
                // `main` do this (function chunks end in Ret/Err).
                debug_assert!(cur.frames.is_empty());
                next_ctx!();
            }
            let fb = cur.frame_base;
            match &code[cur.pc] {
                Insn::Const(i) => {
                    self.ensure_stack(cur.sp + 1);
                    let v = Slot::splat(&exe.consts[*i as usize]);
                    let wide = cur.sp >= stack_live;
                    self.stack[cur.sp].put(v, cur.mask, wide, &mut self.boxings);
                    cur.sp += 1;
                }
                Insn::LoadGlobal(s) => {
                    self.ensure_stack(cur.sp + 1);
                    // Globals and stack are disjoint fields; copy via
                    // split borrow.
                    let (stack, globals) = (&mut self.stack, &self.globals);
                    let wide = cur.sp >= stack_live;
                    stack[cur.sp].write_from(
                        &globals[*s as usize],
                        cur.mask,
                        wide,
                        &mut self.boxings,
                    );
                    cur.sp += 1;
                }
                Insn::LoadLocal(s) => {
                    self.ensure_stack(cur.sp + 1);
                    let (stack, locals) = (&mut self.stack, &self.locals);
                    let wide = cur.sp >= stack_live;
                    stack[cur.sp].write_from(
                        &locals[fb + *s as usize],
                        cur.mask,
                        wide,
                        &mut self.boxings,
                    );
                    cur.sp += 1;
                }
                Insn::StoreLocal(s) => {
                    cur.sp -= 1;
                    let dst = fb + *s as usize;
                    // The popped stack slot is dead for `cur`; it may be
                    // swapped out only if it is dead for the pending
                    // contexts too.
                    self.locals[dst].take_from(
                        &mut self.stack[cur.sp],
                        cur.mask,
                        dst >= locals_live,
                        cur.sp >= stack_live,
                        &mut self.boxings,
                    );
                }
                Insn::StoreGlobalPop(s) => {
                    cur.sp -= 1;
                    // Always masked: retired lanes' outputs must survive.
                    let (stack, globals) = (&self.stack, &mut self.globals);
                    globals[*s as usize].copy_masked_from(
                        &stack[cur.sp],
                        cur.mask,
                        &mut self.boxings,
                    );
                }
                Insn::Dup => {
                    self.ensure_stack(cur.sp + 1);
                    let (lo, hi) = self.stack.split_at_mut(cur.sp);
                    hi[0].write_from(
                        &lo[cur.sp - 1],
                        cur.mask,
                        cur.sp >= stack_live,
                        &mut self.boxings,
                    );
                    cur.sp += 1;
                }
                Insn::Pop => cur.sp -= 1,
                Insn::Swap => {
                    if cur.sp - 2 >= stack_live {
                        self.stack.swap(cur.sp - 1, cur.sp - 2);
                    } else {
                        let (lo, hi) = self.stack.split_at_mut(cur.sp - 1);
                        let top = hi[0].clone();
                        hi[0].copy_masked_from(&lo[cur.sp - 2], cur.mask, &mut self.boxings);
                        lo[cur.sp - 2].copy_masked_from(&top, cur.mask, &mut self.boxings);
                    }
                }
                Insn::Neg => {
                    let top = cur.sp - 1;
                    let wide = top >= stack_live;
                    match &mut self.stack[top] {
                        Slot::F(x) => {
                            if wide {
                                for v in x.iter_mut() {
                                    *v = -*v;
                                }
                            } else {
                                for_lanes!(cur.mask, lane => { x[lane] = -x[lane]; });
                            }
                        }
                        Slot::I(x) => {
                            if wide {
                                for v in x.iter_mut() {
                                    *v = v.wrapping_neg();
                                }
                            } else {
                                for_lanes!(cur.mask, lane => { x[lane] = x[lane].wrapping_neg(); });
                            }
                        }
                        Slot::V2(x) => {
                            for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                        }
                        Slot::V3(x) => {
                            for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                        }
                        Slot::V4(x) => {
                            for_lanes!(cur.mask, lane => { x[lane] = x[lane].map(|v| -v); });
                        }
                        slot => {
                            let mut out = no_values();
                            for_lanes!(cur.mask, lane => { out[lane] = ops::negate(slot.get(lane))?; });
                            slot.put_values(&mut out, cur.mask, wide, &mut self.boxings);
                        }
                    }
                }
                Insn::Not => {
                    let top = cur.sp - 1;
                    let wide = top >= stack_live;
                    match &mut self.stack[top] {
                        Slot::B(x) => {
                            if wide {
                                for v in x.iter_mut() {
                                    *v = !*v;
                                }
                            } else {
                                for_lanes!(cur.mask, lane => { x[lane] = !x[lane]; });
                            }
                        }
                        slot => {
                            let mut out = no_values();
                            for_lanes!(cur.mask, lane => {
                                let b = slot.get(lane).as_bool().ok_or_else(|| RuntimeError::Type {
                                    message: "`!` requires bool".into(),
                                })?;
                                out[lane] = Value::Bool(!b);
                            });
                            slot.put_values(&mut out, cur.mask, wide, &mut self.boxings);
                        }
                    }
                }
                Insn::Binary(op) => {
                    let wide = cur.sp - 2 >= stack_live;
                    if !self.binary_fast(*op, cur.sp, cur.mask, wide) {
                        self.binary_generic(*op, cur.sp, cur.mask, wide)?;
                    }
                    cur.sp -= 1;
                }
                Insn::Branch => {
                    for_lanes!(cur.mask, lane => {
                        self.profiles[lane].branches += 1;
                    });
                }
                Insn::Jump(t) => {
                    cur.pc = *t as usize;
                    reschedule(&mut cur, &mut pending);
                    (stack_live, locals_live) = live_range(&pending);
                    continue;
                }
                Insn::JumpIfFalse(t) | Insn::JumpIfTrue(t) => {
                    let jump_on = matches!(&code[cur.pc], Insn::JumpIfTrue(_));
                    cur.sp -= 1;
                    let mut go: u8 = 0;
                    let mut stay: u8 = 0;
                    match &self.stack[cur.sp] {
                        Slot::B(x) => {
                            for_lanes!(cur.mask, lane => {
                                if x[lane] == jump_on {
                                    go |= 1 << lane;
                                } else {
                                    stay |= 1 << lane;
                                }
                            });
                        }
                        slot => {
                            for_lanes!(cur.mask, lane => {
                                match slot.get(lane).as_bool() {
                                    Some(b) if b == jump_on => go |= 1 << lane,
                                    Some(_) => stay |= 1 << lane,
                                    None => {
                                        return Err(RuntimeError::Type {
                                            message: "condition did not evaluate to bool".into(),
                                        })
                                    }
                                }
                            });
                        }
                    }
                    if go == 0 {
                        cur.pc += 1;
                    } else if stay == 0 {
                        cur.pc = *t as usize;
                        reschedule(&mut cur, &mut pending);
                        (stack_live, locals_live) = live_range(&pending);
                    } else {
                        // Divergence: defer the jumping subgroup, keep
                        // walking the fall-through side.
                        pending.push(Ctx {
                            mask: go,
                            chunk: cur.chunk,
                            pc: *t as usize,
                            sp: cur.sp,
                            frame_base: cur.frame_base,
                            frame_end: cur.frame_end,
                            frames: cur.frames.clone(),
                        });
                        stack_live = stack_live.max(cur.sp);
                        locals_live = locals_live.max(cur.frame_end);
                        cur.mask = stay;
                        cur.pc += 1;
                    }
                    continue;
                }
                Insn::IncDec { inc } => {
                    let top = cur.sp - 1;
                    let wide = top >= stack_live;
                    match &mut self.stack[top] {
                        Slot::F(x) => {
                            let model = self.model;
                            let d = if *inc { 1.0f32 } else { -1.0 };
                            if wide {
                                for v in x.iter_mut() {
                                    *v = model.round_alu(*v + d);
                                }
                            } else {
                                for_lanes!(cur.mask, lane => {
                                    x[lane] = model.round_alu(x[lane] + d);
                                });
                            }
                            for_lanes!(cur.mask, lane => { self.profiles[lane].alu_ops += 1; });
                        }
                        Slot::I(x) => {
                            let d: i32 = if *inc { 1 } else { -1 };
                            if wide {
                                for v in x.iter_mut() {
                                    *v = v.wrapping_add(d);
                                }
                            } else {
                                for_lanes!(cur.mask, lane => { x[lane] = x[lane].wrapping_add(d); });
                            }
                            for_lanes!(cur.mask, lane => { self.profiles[lane].alu_ops += 1; });
                        }
                        slot => {
                            let mut out = no_values();
                            for_lanes!(cur.mask, lane => {
                                let old = slot.get(lane);
                                let one = match old.ty().scalar() {
                                    Some(Scalar::Int) => Value::Int(1),
                                    _ => Value::Float(1.0),
                                };
                                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                                out[lane] = ops::apply_binary(
                                    self.model,
                                    &mut self.profiles[lane],
                                    op,
                                    old,
                                    one,
                                )?;
                            });
                            slot.put_values(&mut out, cur.mask, wide, &mut self.boxings);
                        }
                    }
                }
                Insn::Swizzle { idx, len } => {
                    let mut indices = [0usize; 4];
                    for (slot, &i) in indices.iter_mut().zip(idx.iter()) {
                        *slot = i as usize;
                    }
                    let sel = &indices[..*len as usize];
                    let top = cur.sp - 1;
                    let wide = top >= stack_live;
                    let src_n = match &self.stack[top] {
                        Slot::V2(_) => 2,
                        Slot::V3(_) => 3,
                        Slot::V4(_) => 4,
                        _ => 0,
                    };
                    if src_n != 0 && sel.iter().all(|&i| i < src_n) {
                        let mut out = [[0.0f32; 4]; MAX_LANES];
                        macro_rules! gather {
                            ($x:ident) => {
                                for_lanes!(cur.mask, lane => {
                                    for (k, &si) in sel.iter().enumerate() {
                                        out[lane][k] = $x[lane][si];
                                    }
                                })
                            };
                        }
                        match &self.stack[top] {
                            Slot::V2(x) => gather!(x),
                            Slot::V3(x) => gather!(x),
                            Slot::V4(x) => gather!(x),
                            _ => unreachable!(),
                        }
                        if sel.len() == 1 {
                            let r = Slot::F(std::array::from_fn(|l| out[l][0]));
                            self.stack[top].put(r, cur.mask, wide, &mut self.boxings);
                        } else {
                            self.write_vec_result(top, sel.len(), &out, cur.mask, wide);
                        }
                    } else {
                        let slot = &mut self.stack[top];
                        let mut out = no_values();
                        for_lanes!(cur.mask, lane => {
                            out[lane] = ops::swizzle_read(&slot.get(lane), sel)?;
                        });
                        slot.put_values(&mut out, cur.mask, wide, &mut self.boxings);
                    }
                }
                Insn::IndexOp => {
                    let mut out = no_values();
                    for_lanes!(cur.mask, lane => {
                        let idx = match self.stack[cur.sp - 1].get(lane) {
                            Value::Int(i) => i as i64,
                            other => {
                                return Err(RuntimeError::Type {
                                    message: format!("index must be int, found {}", other.ty()),
                                })
                            }
                        };
                        // Avoid cloning boxed aggregates (arrays) just to
                        // read one element.
                        out[lane] = match &self.stack[cur.sp - 2] {
                            Slot::Boxed(b) => ops::index_read(&b[lane], idx)?,
                            slot => ops::index_read(&slot.get(lane), idx)?,
                        };
                    });
                    let wide = cur.sp - 2 >= stack_live;
                    self.stack[cur.sp - 2].put_values(&mut out, cur.mask, wide, &mut self.boxings);
                    cur.sp -= 1;
                }
                Insn::Store(def) => {
                    let n = def.n_index as usize;
                    if n == 0 && def.path.is_empty() {
                        // Whole-slot store: the hot case (gl_FragColor,
                        // plain variable writes).
                        cur.sp -= 1;
                        for_lanes!(cur.mask, lane => {
                            if def.wrote_color {
                                self.wrote_frag_color[lane] = true;
                            }
                            if def.wrote_data {
                                self.wrote_frag_data[lane] = true;
                            }
                        });
                        match def.root {
                            SlotRef::Global(s) => {
                                let (stack, globals) = (&self.stack, &mut self.globals);
                                globals[s as usize].copy_masked_from(
                                    &stack[cur.sp],
                                    cur.mask,
                                    &mut self.boxings,
                                );
                            }
                            SlotRef::Local(s) => {
                                let dst = fb + s as usize;
                                self.locals[dst].take_from(
                                    &mut self.stack[cur.sp],
                                    cur.mask,
                                    dst >= locals_live,
                                    cur.sp >= stack_live,
                                    &mut self.boxings,
                                );
                            }
                        }
                    } else {
                        for_lanes!(cur.mask, lane => {
                            // Index operands were pushed outermost-first,
                            // so the first `Index` step's operand is on
                            // top.
                            let mut indices = [0i64; 8];
                            for (k, slot) in indices.iter_mut().take(n).enumerate() {
                                *slot = match self.stack[cur.sp - 1 - k].get(lane) {
                                    Value::Int(i) => i as i64,
                                    other => {
                                        return Err(RuntimeError::Type {
                                            message: format!(
                                                "index must be int, found {}",
                                                other.ty()
                                            ),
                                        })
                                    }
                                };
                            }
                            let value = self.stack[cur.sp - 1 - n].get(lane);
                            if def.wrote_color {
                                self.wrote_frag_color[lane] = true;
                            }
                            if def.wrote_data {
                                self.wrote_frag_data[lane] = true;
                            }
                            let root_slot: &mut Slot = match def.root {
                                SlotRef::Global(s) => &mut self.globals[s as usize],
                                SlotRef::Local(s) => &mut self.locals[fb + s as usize],
                            };
                            // Mutate boxed aggregates in place; re-pack
                            // typed slots through materialise/write-back.
                            match root_slot {
                                Slot::Boxed(b) => {
                                    store_path(&mut b[lane], &def.path, &indices[..n], value)?;
                                }
                                slot => {
                                    let mut root = slot.get(lane);
                                    store_path(&mut root, &def.path, &indices[..n], value)?;
                                    slot.set(lane, root, &mut self.boxings);
                                }
                            }
                        });
                        cur.sp -= n + 1;
                    }
                }
                Insn::LoopEnter => {
                    for_lanes!(cur.mask, lane => {
                        self.loop_counters[lane].push(0);
                    });
                }
                Insn::LoopIter { span } => {
                    for_lanes!(cur.mask, lane => {
                        let counter = self.loop_counters[lane]
                            .last_mut()
                            .expect("loop counter underflow");
                        *counter += 1;
                        self.profiles[lane].branches += 1;
                        if *counter > self.limits.max_loop_iterations {
                            return Err(RuntimeError::LoopLimit {
                                limit: self.limits.max_loop_iterations,
                                span: *span,
                            });
                        }
                    });
                }
                Insn::LoopExit => {
                    for_lanes!(cur.mask, lane => {
                        self.loop_counters[lane].pop();
                    });
                }
                Insn::Discard => {
                    debug_assert!(cur.frames.is_empty());
                    for_lanes!(cur.mask, lane => {
                        self.discarded[lane] = true;
                    });
                    next_ctx!();
                }
                Insn::ErrDiscardInFunction => {
                    return Err(RuntimeError::Type {
                        message: "discard inside a function is not supported by this subset".into(),
                    })
                }
                Insn::ErrBreakInFunction => {
                    return Err(RuntimeError::Type {
                        message: "break/continue escaped a function body".into(),
                    })
                }
                Insn::Ret => match cur.frames.pop() {
                    None => next_ctx!(),
                    Some(frame) => {
                        for_lanes!(cur.mask, lane => {
                            self.loop_counters[lane].truncate(frame.counters_base);
                        });
                        if frame.pushes_outs {
                            let func = &exe.functions[frame.func as usize];
                            let n_outs = func
                                .params
                                .iter()
                                .filter(|(_, q)| matches!(q, ParamQual::Out | ParamQual::InOut))
                                .count();
                            self.ensure_stack(cur.sp + n_outs);
                            if n_outs > 0 {
                                // Return value moves above the copied-out
                                // params: ret to sp-1+n_outs first (its
                                // destination is never an out slot), then
                                // outs to sp-1.. in parameter order. The
                                // callee frame is dead for `cur` once it
                                // returns.
                                let ret = cur.sp - 1;
                                let (lo, hi) = self.stack.split_at_mut(cur.sp);
                                hi[n_outs - 1].take_from(
                                    &mut lo[ret],
                                    cur.mask,
                                    ret + n_outs >= stack_live,
                                    ret >= stack_live,
                                    &mut self.boxings,
                                );
                                let mut k = ret;
                                for (i, (_, qual)) in func.params.iter().enumerate() {
                                    if matches!(qual, ParamQual::Out | ParamQual::InOut) {
                                        let src = frame.callee_base + i;
                                        self.stack[k].take_from(
                                            &mut self.locals[src],
                                            cur.mask,
                                            k >= stack_live,
                                            src >= locals_live,
                                            &mut self.boxings,
                                        );
                                        k += 1;
                                    }
                                }
                            }
                            cur.sp += n_outs;
                        }
                        cur.chunk = frame.ret_chunk;
                        cur.pc = frame.ret_pc;
                        cur.frame_base = frame.frame_base;
                        cur.frame_end = frame.frame_end;
                        reschedule(&mut cur, &mut pending);
                        (stack_live, locals_live) = live_range(&pending);
                        continue;
                    }
                },
                Insn::ErrNoReturn(name) => {
                    let name = &exe.names[*name as usize];
                    return Err(RuntimeError::Type {
                        message: format!("function `{name}` ended without returning a value"),
                    });
                }
                Insn::Halt => {
                    debug_assert!(cur.frames.is_empty());
                    next_ctx!();
                }
                Insn::Call {
                    name,
                    argc,
                    candidates,
                    pushes_outs,
                } => {
                    let argc = *argc as usize;
                    let args_start = cur.sp - argc;
                    let name_s = &exe.names[*name as usize];
                    // Every builtin result lands in `args_start`.
                    let wide = args_start >= stack_live;

                    // SoA fast paths for the hot builtins (argument slot
                    // variants are shared by all lanes, so one dispatch
                    // covers the batch). Skipped when the lowerer
                    // expects out-param copy-back so the drift error
                    // below still fires.
                    if !*pushes_outs && self.fast_builtin(name_s, args_start, argc, cur.mask, wide)
                    {
                        cur.sp = args_start + 1;
                        cur.pc += 1;
                        continue;
                    }

                    // Builtins and constructors next (they cannot be
                    // shadowed) — per lane, on the lane's own
                    // materialised arguments and profile. Builtin-ness
                    // is decided by name and argument types, which are
                    // uniform across lanes.
                    let mut is_builtin = false;
                    let mut out = no_values();
                    for_lanes!(cur.mask, lane => {
                        self.arg_buf.clear();
                        for k in 0..argc {
                            let v = self.stack[args_start + k].get(lane);
                            self.arg_buf.push(v);
                        }
                        let result = {
                            let mut cx = BuiltinCx {
                                model: self.model,
                                profile: &mut self.profiles[lane],
                                textures: self.textures,
                            };
                            builtins::call(name_s, &self.arg_buf, &mut cx)
                        };
                        match result {
                            Some(r) => {
                                if *pushes_outs {
                                    return Err(RuntimeError::Type {
                                        message: format!(
                                            "builtin `{name_s}` intercepted a call lowered with \
                                             out-parameter copy-back (builtin table drift)"
                                        ),
                                    });
                                }
                                out[lane] = r?;
                                is_builtin = true;
                            }
                            None => {
                                debug_assert!(!is_builtin, "builtin dispatch diverged across lanes");
                                break;
                            }
                        }
                    });
                    if is_builtin {
                        self.stack[args_start].put_values(
                            &mut out,
                            cur.mask,
                            wide,
                            &mut self.boxings,
                        );
                        cur.sp = args_start + 1;
                        cur.pc += 1;
                        continue;
                    }

                    // User-defined function by exact argument types
                    // (static, so the first lane's types stand for all).
                    let first = cur.mask.trailing_zeros() as usize;
                    self.arg_buf.clear();
                    for k in 0..argc {
                        let v = self.stack[args_start + k].get(first);
                        self.arg_buf.push(v);
                    }
                    let fi = candidates
                        .iter()
                        .copied()
                        .find(|&fi| {
                            let f = &exe.functions[fi as usize];
                            f.params.len() == argc
                                && f.params
                                    .iter()
                                    .zip(&self.arg_buf)
                                    .all(|((ty, _), v)| ops::value_matches_type(v, ty))
                        })
                        .ok_or_else(|| RuntimeError::Unbound {
                            name: name_s.clone(),
                        })?;
                    if cur.frames.len() as u32 >= self.limits.max_call_depth {
                        return Err(RuntimeError::CallDepth {
                            limit: self.limits.max_call_depth,
                        });
                    }
                    let func = &exe.functions[fi as usize];
                    let callee_base = cur.frame_end;
                    let callee_end =
                        callee_base + exe.chunks[func.chunk as usize].frame_size as usize;
                    self.ensure_locals(callee_end);
                    let counters_base = self.loop_counters[first].len();
                    for_lanes!(cur.mask, lane => {
                        self.profiles[lane].calls += 1;
                    });
                    for (i, (ty, qual)) in func.params.iter().enumerate() {
                        // The argument slots are dead for `cur` once the
                        // callee starts (its stack begins at `args_start`).
                        let (src, dst) = (args_start + i, callee_base + i);
                        let wide = dst >= locals_live;
                        match qual {
                            ParamQual::In | ParamQual::InOut => self.locals[dst].take_from(
                                &mut self.stack[src],
                                cur.mask,
                                wide,
                                src >= stack_live,
                                &mut self.boxings,
                            ),
                            ParamQual::Out => {
                                let z = Slot::splat(&Value::zero_of(ty));
                                self.locals[dst].put(z, cur.mask, wide, &mut self.boxings);
                            }
                        }
                    }
                    cur.frames.push(Frame {
                        ret_chunk: cur.chunk,
                        ret_pc: cur.pc + 1,
                        frame_base: cur.frame_base,
                        frame_end: cur.frame_end,
                        callee_base,
                        func: fi,
                        pushes_outs: *pushes_outs,
                        counters_base,
                    });
                    cur.chunk = func.chunk;
                    cur.pc = 0;
                    cur.sp = args_start;
                    cur.frame_base = callee_base;
                    cur.frame_end = callee_end;
                    continue;
                }
            }
            cur.pc += 1;
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::lower;
    use crate::exec::NoTextures;
    use crate::parser::parse;
    use crate::sema::{check, ShaderKind};
    use crate::vm::Vm;

    const P: &str = "precision highp float;\n";

    fn lower_src(src: &str) -> Executable {
        let shader = check(ShaderKind::Fragment, parse(src).expect("parse")).expect("check");
        lower(&shader).expect("lower")
    }

    /// Runs `src` with per-lane values for the global `u_in` through the
    /// SPMD VM (one batch of `inputs.len()` lanes) and through a scalar
    /// VM (sequential invocations), asserting bit-identical colors,
    /// discard flags and aggregate profiles.
    fn assert_lanes_match(src: &str, inputs: &[f32]) {
        for model in [FloatModel::Exact, FloatModel::Vc4Sfu, FloatModel::Mediump16] {
            let exe = lower_src(src);
            let tex = NoTextures;
            let mut spmd = SpmdVm::with_model(&exe, &tex, model, inputs.len()).expect("spmd");
            let mut scalar = Vm::with_model(&exe, &tex, model).expect("vm");
            let slot = exe.global_slot("u_in").expect("u_in slot");
            for (lane, &x) in inputs.iter().enumerate() {
                spmd.set_lane_slot(lane, slot, Value::Float(x));
            }
            spmd.run_batch(inputs.len()).expect("batch");
            for (lane, &x) in inputs.iter().enumerate() {
                scalar.set_slot(slot, Value::Float(x));
                scalar.run_main().expect("scalar run");
                assert_eq!(
                    spmd.discarded(lane),
                    scalar.discarded(),
                    "discard lane {lane} of {src}"
                );
                if !scalar.discarded() {
                    assert_eq!(
                        spmd.frag_color(lane).map(|c| c.map(f32::to_bits)),
                        scalar.frag_color().map(|c| c.map(f32::to_bits)),
                        "color lane {lane} input {x} of {src} under {model:?}"
                    );
                }
            }
            assert_eq!(spmd.profile(), scalar.profile(), "profiles for {src}");
        }
    }

    #[test]
    fn uniform_flow_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{ gl_FragColor = vec4(u_in * 0.5, fract(u_in), 0.25, 1.0); }}"
            ),
            &[0.1, 0.7, 1.3, 2.9, 3.5, 4.0, 5.25, 6.125],
        );
    }

    #[test]
    fn divergent_if_else_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float c;
                    if (u_in > 2.0) {{ c = u_in * 0.25; }} else {{ c = u_in + 0.5; }}
                    gl_FragColor = vec4(c, u_in > 4.0 ? 1.0 : 0.0, 0.0, 1.0);
                 }}"
            ),
            &[0.5, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 0.0],
        );
    }

    #[test]
    fn divergent_discard_matches() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    if (u_in < 0.0) {{ discard; }}
                    gl_FragColor = vec4(sqrt(u_in), 0.0, 0.0, 1.0);
                 }}"
            ),
            &[1.0, -2.0, 4.0, -0.5, 9.0, 16.0, -1.0, 25.0],
        );
    }

    #[test]
    fn divergent_loop_trip_counts_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    float s = 0.0;
                    for (int i = 0; i < 12; i++) {{
                        if (float(i) >= u_in) {{ break; }}
                        s += fract(float(i) * 0.37) + u_in * 0.01;
                    }}
                    gl_FragColor = vec4(s * 0.1, s, 1.0 / (s + 1.0), 1.0);
                 }}"
            ),
            &[0.0, 3.0, 12.0, 1.0, 7.0, 5.0, 11.0, 2.0],
        );
    }

    #[test]
    fn divergent_calls_and_out_params_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void split(float v, out float hi, out float lo) {{
                    hi = floor(v); lo = fract(v);
                 }}
                 float heavy(float v) {{
                    float s = 0.0;
                    for (int i = 0; i < 4; i++) {{ s += sin(v + float(i)); }}
                    return s;
                 }}
                 void main() {{
                    float h; float l;
                    split(u_in, h, l);
                    float r = u_in > 2.5 ? heavy(u_in) : h;
                    gl_FragColor = vec4(r * 0.1, h * 0.05, l, 1.0);
                 }}"
            ),
            &[0.25, 3.75, 1.5, 6.0, 2.5, 5.125, 4.0, 0.0],
        );
    }

    #[test]
    fn short_circuit_and_nested_branches_match() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 void main() {{
                    bool ok = (u_in != 0.0) && (1.0 / u_in > 0.2);
                    bool or = (u_in == 0.0) || (u_in > 3.0);
                    float c = 0.0;
                    if (ok) {{
                        if (or) {{ c = 0.75; }} else {{ c = 0.5; }}
                    }} else {{
                        c = or ? 0.25 : 0.125;
                    }}
                    gl_FragColor = vec4(c, ok ? 1.0 : 0.0, or ? 1.0 : 0.0, 1.0);
                 }}"
            ),
            &[0.0, 1.0, 4.0, -2.0, 0.5, 8.0, 2.0, -0.25],
        );
    }

    /// The watermarks must come from the *pending* contexts, not the
    /// current one. Each line of `main` makes the current context write
    /// at or above its own `sp` / `frame_end` but below a value a
    /// deferred context still holds: `g`'s early return leaves the other
    /// lanes suspended inside `g` while `h` binds its parameter into the
    /// same frame slots, and the `?:` lanes that jumped to `else` push
    /// their result into the slot holding the `then` lanes' result.
    /// Writing either wholesale would clobber the deferred lanes.
    #[test]
    fn writes_below_deferred_values_stay_masked() {
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\n\
                 float g(float v) {{
                    if (v > 2.0) {{ return v * 0.5; }}
                    float t = v + 1.0;
                    return t * t;
                 }}
                 float h(float w) {{ float z = w * 3.0; return z; }}
                 void main() {{
                    float a = g(u_in);
                    float b = h(u_in + 10.0);
                    float c = u_in > 4.0 ? u_in * 2.0 : u_in + 0.5;
                    gl_FragColor = vec4(a, b, c, 1.0);
                 }}"
            ),
            &[0.5, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 0.0],
        );
    }

    /// Runs one batch of `src` over `inputs` and returns the boxings it
    /// reported.
    fn boxings_of(src: &str, inputs: &[f32]) -> u64 {
        let exe = lower_src(src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, inputs.len()).unwrap();
        let slot = exe.global_slot("u_in").expect("u_in slot");
        for (lane, &x) in inputs.iter().enumerate() {
            spmd.set_lane_slot(lane, slot, Value::Float(x));
        }
        spmd.take_boxings();
        spmd.run_batch(inputs.len()).expect("batch");
        spmd.take_boxings()
    }

    #[test]
    fn only_genuinely_mixed_slots_box() {
        let inputs = [0.5, 3.0, 1.0, 6.0, 2.0, 5.0, 4.0, 0.0];
        // Divergent branches whose temporaries change type above the
        // deferred lanes' live range stay typed.
        let nested = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float c = u_in > 2.0 ? (u_in < 5.0 ? 1.0 : 2.0) : 2.0 + float(u_in > 0.7);
                if (u_in > 3.0) {{ c += length(vec2(u_in, c)); }}
                gl_FragColor = vec4(c);
             }}"
        );
        assert_lanes_match(&nested, &inputs);
        assert_eq!(boxings_of(&nested, &inputs), 0);
        // The `else` lanes compute a bool in the slot where the deferred
        // `then` lanes hold their float result: a genuinely mixed slot.
        let mixed = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float c = u_in > 4.0 ? u_in : (u_in < 1.0 ? -u_in : 0.5);
                gl_FragColor = vec4(c);
             }}"
        );
        assert_lanes_match(&mixed, &inputs);
        assert!(boxings_of(&mixed, &inputs) > 0);
    }

    #[test]
    fn partial_batches_match() {
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float c = u_in > 1.0 ? log2(u_in) : u_in;
                gl_FragColor = vec4(c, 0.0, 0.0, 1.0);
             }}"
        );
        for width in 1..=5usize {
            let inputs: Vec<f32> = (0..width).map(|i| i as f32 * 0.75).collect();
            assert_lanes_match(&src, &inputs);
        }
    }

    #[test]
    fn mutable_globals_reset_per_lane() {
        // A mutable global increments per invocation; each lane must see
        // a fresh copy (scalar resets it per run_main).
        assert_lanes_match(
            &format!(
                "{P}uniform float u_in;\nfloat counter = 0.0;\n\
                 void main() {{
                    counter += u_in;
                    gl_FragColor = vec4(counter, 0.0, 0.0, 1.0);
                 }}"
            ),
            &[1.0, 2.0, 3.0, 4.0],
        );
    }

    #[test]
    fn lane_trap_replays_with_scalar_error_semantics() {
        // Lane 2 indexes out of bounds; lanes 0 and 1 must complete with
        // exact outputs and the error must name lane 2.
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float a[3];
                for (int i = 0; i < 3; i++) {{ a[i] = float(i); }}
                gl_FragColor = vec4(a[int(u_in)], 0.0, 0.0, 1.0);
             }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 4).expect("spmd");
        let slot = exe.global_slot("u_in").expect("slot");
        for (lane, x) in [0.0f32, 2.0, 7.0, 1.0].iter().enumerate() {
            spmd.set_lane_slot(lane, slot, Value::Float(*x));
        }
        let err = spmd.run_batch(4).expect_err("lane 2 traps");
        assert_eq!(err.lane, 2);
        assert!(matches!(
            err.error,
            RuntimeError::IndexOutOfBounds { index: 7, len: 3 }
        ));
        assert!(spmd.completed(0) && spmd.completed(1));
        assert!(!spmd.completed(2) && !spmd.completed(3));
        assert_eq!(spmd.frag_color(0), Some([0.0, 0.0, 0.0, 1.0]));
        assert_eq!(spmd.frag_color(1), Some([2.0, 0.0, 0.0, 1.0]));
        assert_eq!(spmd.take_replays(), 1);
    }

    #[test]
    fn loop_limit_traps_like_scalar() {
        let src = format!(
            "{P}uniform float u_in;\n\
             void main() {{
                float s = 0.0;
                while (s < u_in) {{ s += 1.0; }}
                gl_FragColor = vec4(s);
             }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 2).expect("spmd");
        spmd.set_limits(ExecLimits {
            max_loop_iterations: 100,
            max_call_depth: 8,
        });
        let slot = exe.global_slot("u_in").expect("slot");
        spmd.set_lane_slot(0, slot, Value::Float(5.0));
        spmd.set_lane_slot(1, slot, Value::Float(1.0e9));
        let err = spmd.run_batch(2).expect_err("lane 1 exceeds budget");
        assert_eq!(err.lane, 1);
        assert!(matches!(err.error, RuntimeError::LoopLimit { .. }));
        assert!(spmd.completed(0));
        assert_eq!(spmd.frag_color(0), Some([5.0; 4]));
    }

    #[test]
    fn frag_data_and_broadcast_globals() {
        let src = format!(
            "{P}uniform float u_gain;\n\
             void main() {{ gl_FragData[0] = vec4(0.5 * u_gain, 0.25, 0.125, 1.0); }}"
        );
        let exe = lower_src(&src);
        let tex = NoTextures;
        let mut spmd = SpmdVm::with_model(&exe, &tex, FloatModel::Exact, 3).expect("spmd");
        spmd.set_global("u_gain", Value::Float(2.0)).expect("set");
        spmd.run_batch(3).expect("batch");
        for lane in 0..3 {
            assert_eq!(spmd.wrote_outputs(lane), (false, true));
            assert_eq!(spmd.frag_color(lane), Some([1.0, 0.25, 0.125, 1.0]));
        }
    }
}
