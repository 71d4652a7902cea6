//! The four workloads. Inputs come from `gpes_kernels::data` under the
//! run's seed; every output is checked bit for bit against a host
//! reference (the default `FloatModel::Exact` makes that possible).

use crate::harness::{
    DirectOp, OpRecord, Served, BUILD, CHECK, DISPATCH, READBACK, REGISTER, UPLOAD,
};
use crate::trace::Tracer;
use gpes_core::serve::{KernelRegistry, ServedPipeline};
use gpes_core::{
    AnyGpuArray, Bindings, ComputeContext, ComputeError, Engine, Job, JobHandle, KernelSpec,
    PackBias, PipelineJob, PipelineResult, PipelineSpec, Readback, ResidentInput, ScalarType,
    SourceSeed, TenantId, TensorData,
};
use gpes_kernels::cnn::{self, CnnOutput, CnnWeights, Precision};
use gpes_kernels::{data, sgemm, sum};
use gpes_perf::{readback_bytes_for, upload_bytes_for};
use std::cell::RefCell;
use std::sync::Arc;

/// Seeds for independent input streams: SplitMix64 over the run seed,
/// a stream id and an index.
fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bit-for-bit equality (`==` on floats would equate `0.0` and `-0.0`).
fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The self-test's corruption: one flipped mantissa bit.
fn corrupt(v: &mut [f32]) {
    if let Some(x) = v.first_mut() {
        *x = f32::from_bits(x.to_bits() ^ 1);
    }
}

fn f32_output(outputs: &[TensorData], want: &[f32]) -> bool {
    outputs.len() == 1 && outputs[0].as_f32().is_some_and(|got| same_bits(got, want))
}

fn f32_input(t: &TensorData) -> &[f32] {
    t.as_f32().expect("f32 input tensor")
}

/// One f32 kernel-spec op as an engine worker performs it: upload each
/// input, build the spec (a program-cache hit once warm), dispatch,
/// read back, recycle.
fn spec_op(
    cc: &mut ComputeContext,
    spec: &KernelSpec,
    inputs: &[&[f32]],
    bindings: &Bindings,
    op: u64,
    tr: &mut Tracer,
) -> Result<OpRecord, ComputeError> {
    let mut arrays: Vec<AnyGpuArray> = Vec::with_capacity(inputs.len());
    let mut upload_bytes = 0;
    for data in inputs {
        let a = tr.span(UPLOAD, op, || cc.upload(data))?.erase();
        upload_bytes += upload_bytes_for(ScalarType::F32, a.layout().texel_count());
        arrays.push(a);
    }
    let kernel = tr.span(BUILD, op, || spec.build_any(cc, &arrays))?;
    let out = tr.span(DISPATCH, op, || cc.run_to_array_any_with(&kernel, bindings))?;
    let host = tr.span(READBACK, op, || {
        cc.read_array_any(&out, Readback::DirectFbo)
    })?;
    let readback_bytes = readback_bytes_for(out.layout().texel_count());
    for a in arrays {
        cc.recycle_any(a);
    }
    cc.recycle_any(out);
    Ok(OpRecord {
        upload_bytes,
        readback_bytes,
        outputs: vec![host],
    })
}

// ---- small_jobs ----------------------------------------------------------

/// Elements per `small_jobs` op.
const SMALL_N: usize = 64;
/// Distinct `small_jobs` inputs, cycled by op number.
const SMALL_POOL: usize = 64;

/// f32 saxpy on 64 elements through `Engine::submit`, 2 × workers in
/// flight: fixed per-job cost dominates, shading barely shows.
pub struct SmallJobs {
    spec: Arc<KernelSpec>,
    xs: Vec<Arc<Vec<f32>>>,
    ys: Vec<Arc<Vec<f32>>>,
    tensors: Vec<[Arc<TensorData>; 2]>,
    alphas: Vec<f32>,
    references: Vec<Vec<f32>>,
}

impl SmallJobs {
    /// Inputs and references for `seed`.
    pub fn new(seed: u64, corrupt_reference: bool) -> SmallJobs {
        let spec = Arc::new(
            KernelSpec::new("bench_saxpy")
                .input("x")
                .input("y")
                .uniform_f32("alpha", 1.0)
                .output(SMALL_N)
                .body("return alpha * fetch_x(idx) + fetch_y(idx);"),
        );
        let xs: Vec<Arc<Vec<f32>>> = (0..SMALL_POOL as u64)
            .map(|i| Arc::new(data::random_f32(SMALL_N, sub_seed(seed, 1, i), 100.0)))
            .collect();
        let ys: Vec<Arc<Vec<f32>>> = (0..SMALL_POOL as u64)
            .map(|i| Arc::new(data::random_f32(SMALL_N, sub_seed(seed, 2, i), 100.0)))
            .collect();
        let alphas = data::random_f32(SMALL_POOL, sub_seed(seed, 3, 0), 4.0);
        let references = (0..SMALL_POOL)
            .map(|i| {
                let mut r = gpes_kernels::saxpy::cpu_reference(&xs[i], &ys[i], alphas[i]);
                if corrupt_reference {
                    corrupt(&mut r);
                }
                r
            })
            .collect();
        let tensors = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| {
                [
                    Arc::new(TensorData::F32(x.to_vec())),
                    Arc::new(TensorData::F32(y.to_vec())),
                ]
            })
            .collect();
        SmallJobs {
            spec,
            xs,
            ys,
            tensors,
            alphas,
            references,
        }
    }
}

impl DirectOp for SmallJobs {
    fn run(
        &self,
        cc: &mut ComputeContext,
        _registry: Option<&KernelRegistry>,
        op: u64,
        tr: &mut Tracer,
    ) -> Result<OpRecord, ComputeError> {
        let i = op as usize % SMALL_POOL;
        let bindings = Bindings::new().uniform_f32("alpha", self.alphas[i]);
        spec_op(
            cc,
            &self.spec,
            &[&self.xs[i], &self.ys[i]],
            &bindings,
            op,
            tr,
        )
    }

    fn check(&self, op: u64, outputs: &[TensorData]) -> bool {
        f32_output(outputs, &self.references[op as usize % SMALL_POOL])
    }

    fn inputs(&self, op: u64) -> Vec<Arc<TensorData>> {
        self.tensors[op as usize % SMALL_POOL].to_vec()
    }
}

impl Served for SmallJobs {
    type Out = Vec<f32>;

    fn in_flight(&self, workers: usize) -> usize {
        2 * workers
    }

    fn submit(
        &self,
        engine: &Engine,
        _registry: &KernelRegistry,
        op: u64,
    ) -> Result<JobHandle<Vec<f32>>, ComputeError> {
        let i = op as usize % SMALL_POOL;
        engine.submit(
            Job::new(&self.spec)
                .data_shared(&self.xs[i])
                .data_shared(&self.ys[i])
                .uniform_f32("alpha", self.alphas[i]),
        )
    }

    fn verify(&self, op: u64, out: &Vec<f32>) -> bool {
        same_bits(out, &self.references[op as usize % SMALL_POOL])
    }
}

// ---- cold_kernels --------------------------------------------------------

/// Elements per `cold_kernels` op.
const COLD_N: usize = 256;
/// Distinct `cold_kernels` inputs, cycled by op number.
const COLD_POOL: usize = 16;
/// Ops before the steady check: past the default 32-kernel tenant quota,
/// so FIFO eviction runs in every timed op.
const COLD_WARM_OPS: u64 = 48;
/// Ops per engine episode. Every op leaves a program behind in the
/// serving contexts (about 0.14 MB each) that is never evicted, so the
/// window runs episodes of this many ops on fresh engines: about 4.5 s
/// of work and 0.2 GB of retained programs each on a 2-vCPU host, the
/// same at the end of every episode whatever the host's speed.
const COLD_OPS_PER_ENGINE: u64 = 1500;

/// Each op registers a never-seen tenant kernel and runs it once: the
/// program cache's write path (admission, lowering, link, insert,
/// tenant FIFO eviction).
pub struct ColdKernels {
    tenant: TenantId,
    xs: Vec<Arc<Vec<f32>>>,
    tensors: Vec<Arc<TensorData>>,
    corrupt_reference: bool,
}

impl ColdKernels {
    /// Inputs for `seed`.
    pub fn new(seed: u64, corrupt_reference: bool) -> ColdKernels {
        let xs: Vec<Arc<Vec<f32>>> = (0..COLD_POOL as u64)
            .map(|i| Arc::new(data::random_f32(COLD_N, sub_seed(seed, 4, i), 100.0)))
            .collect();
        let tensors = xs
            .iter()
            .map(|x| Arc::new(TensorData::F32(x.to_vec())))
            .collect();
        ColdKernels {
            tenant: TenantId::new("bench"),
            xs,
            tensors,
            corrupt_reference,
        }
    }

    /// The op's constant: an integer below 2^24, so the literal is exact
    /// in f32 and every op's source text differs.
    fn constant(op: u64) -> f32 {
        (op % (1 << 23)) as f32
    }

    fn spec(op: u64) -> KernelSpec {
        KernelSpec::new(format!("bench_cold_{op}"))
            .input("x")
            .output(COLD_N)
            .body(format!(
                "return fetch_x(idx) * 0.5 + {:.1};",
                ColdKernels::constant(op)
            ))
    }

    fn reference(&self, op: u64) -> Vec<f32> {
        let c = ColdKernels::constant(op);
        let mut r: Vec<f32> = self.xs[op as usize % COLD_POOL]
            .iter()
            .map(|&x| x * 0.5 + c)
            .collect();
        if self.corrupt_reference {
            corrupt(&mut r);
        }
        r
    }
}

impl DirectOp for ColdKernels {
    fn run(
        &self,
        cc: &mut ComputeContext,
        registry: Option<&KernelRegistry>,
        op: u64,
        tr: &mut Tracer,
    ) -> Result<OpRecord, ComputeError> {
        let registry = registry.expect("cold kernels register through the engine's registry");
        let spec = ColdKernels::spec(op);
        tr.span(CHECK, op, || registry.check(&spec))?;
        let kernel = tr.span(REGISTER, op, || {
            registry.register(self.tenant.clone(), spec)
        })?;
        let x = &self.xs[op as usize % COLD_POOL];
        spec_op(cc, kernel.spec(), &[x], &Bindings::new(), op, tr)
    }

    fn check(&self, op: u64, outputs: &[TensorData]) -> bool {
        f32_output(outputs, &self.reference(op))
    }

    fn inputs(&self, op: u64) -> Vec<Arc<TensorData>> {
        vec![Arc::clone(&self.tensors[op as usize % COLD_POOL])]
    }

    /// Registration links each op's program into the shared cache and
    /// the serving context installs it: exactly one new program per op.
    fn steady(&self, churn: &crate::harness::Churn, ops: u64) -> bool {
        churn.linked + churn.adopted == ops && churn.textures_created == 0
    }
}

impl Served for ColdKernels {
    type Out = Vec<f32>;

    fn in_flight(&self, _workers: usize) -> usize {
        1
    }

    fn min_warm_ops(&self) -> u64 {
        COLD_WARM_OPS
    }

    fn ops_per_engine(&self) -> Option<u64> {
        Some(COLD_OPS_PER_ENGINE)
    }

    /// Ops run one at a time, so a second CPU adds no parallelism, only
    /// a cross-CPU wake-up at each hand-off between the client and a
    /// worker. On a shared host that wake-up costs whatever the
    /// hypervisor takes to run an idle vCPU again, and it made p90 swing
    /// up to 2x between runs; on one CPU the hand-offs stay local.
    fn cpus(&self) -> Option<usize> {
        Some(1)
    }

    fn submit(
        &self,
        engine: &Engine,
        registry: &KernelRegistry,
        op: u64,
    ) -> Result<JobHandle<Vec<f32>>, ComputeError> {
        let kernel = registry.register(self.tenant.clone(), ColdKernels::spec(op))?;
        engine.submit(kernel.job().data_shared(&self.xs[op as usize % COLD_POOL]))
    }

    fn verify(&self, op: u64, out: &Vec<f32>) -> bool {
        same_bits(out, &self.reference(op))
    }
}

// ---- cnn_infer -----------------------------------------------------------

/// Images in the `cnn_infer` pool, cycled by op number.
const CNN_POOL: usize = 64;

/// What a worker keeps per context for the CNN: the built pipeline and
/// the resident weights.
struct CnnContextState {
    served: ServedPipeline,
    weights: [AnyGpuArray; 3],
}

/// The quantized CNN (7 passes, i16 weights resident) through
/// `Engine::submit_pipeline`, one request in flight per worker:
/// shading dominates and queue wait is near zero.
pub struct CnnInfer {
    spec: Arc<PipelineSpec>,
    images: Vec<Arc<TensorData>>,
    references: Vec<CnnOutput>,
    weight_tensors: [TensorData; 3],
    residents: [ResidentInput; 3],
    replay: RefCell<Option<CnnContextState>>,
}

impl CnnInfer {
    /// Weights, images and references for `seed`.
    ///
    /// # Errors
    ///
    /// Pipeline-spec validation errors.
    pub fn new(seed: u64, corrupt_reference: bool) -> Result<CnnInfer, ComputeError> {
        let side = cnn::IMG_SIDE as usize;
        let weights = CnnWeights::demo(sub_seed(seed, 5, 0));
        let pixels: Vec<Vec<u8>> = (0..CNN_POOL as u64)
            .map(|i| data::random_u8(side * side, sub_seed(seed, 6, i), 255))
            .collect();
        let references = pixels
            .iter()
            .map(|img| {
                let mut r = cnn::cpu_reference(img, &weights, PackBias::default());
                if corrupt_reference {
                    r.top ^= 1;
                }
                r
            })
            .collect();
        let (w1, w2, wd) = cnn::weight_tensors(Precision::Quantized, &weights);
        Ok(CnnInfer {
            spec: Arc::new(cnn::pipeline_spec(Precision::Quantized)?),
            images: pixels
                .iter()
                .map(|img| Arc::new(cnn::img_tensor(Precision::Quantized, img)))
                .collect(),
            references,
            residents: [
                ResidentInput::new_tensor(w1.clone()),
                ResidentInput::new_tensor(w2.clone()),
                ResidentInput::new_tensor(wd.clone()),
            ],
            weight_tensors: [w1, w2, wd],
            replay: RefCell::new(None),
        })
    }

    fn matches(&self, op: u64, scores: Option<&TensorData>, top: Option<&TensorData>) -> bool {
        let want = &self.references[op as usize % CNN_POOL];
        scores.and_then(TensorData::as_i16) == Some(want.scores.as_slice())
            && top.and_then(TensorData::as_i16) == Some(&[want.top][..])
    }

    /// Builds the pipeline and uploads the weights on first use, as a
    /// worker does on first sight of the spec and the residents.
    fn context_state(&self, cc: &mut ComputeContext) -> Result<CnnContextState, ComputeError> {
        let [w1, w2, wd] = &self.weight_tensors;
        Ok(CnnContextState {
            served: self.spec.build(cc)?,
            weights: [
                cc.upload_any(w1)?,
                cc.upload_any(w2)?,
                cc.upload_any_matrix(cnn::DENSE_OUTPUTS as u32, cnn::DENSE_INPUTS as u32, wd)?,
            ],
        })
    }
}

impl DirectOp for CnnInfer {
    fn run(
        &self,
        cc: &mut ComputeContext,
        _registry: Option<&KernelRegistry>,
        op: u64,
        tr: &mut Tracer,
    ) -> Result<OpRecord, ComputeError> {
        let mut state = self.replay.borrow_mut();
        if state.is_none() {
            *state = Some(self.context_state(cc)?);
        }
        let state = state.as_ref().expect("just initialised");
        let image = &self.images[op as usize % CNN_POOL];
        let img = tr.span(UPLOAD, op, || {
            cc.upload_any_matrix(cnn::IMG_SIDE, cnn::IMG_SIDE, image)
        })?;
        let [w1, w2, wd] = &state.weights;
        let seeds = [
            SourceSeed::any("img", &img),
            SourceSeed::any("w1", w1),
            SourceSeed::any("w2", w2),
            SourceSeed::any("wd", wd),
        ];
        let run = tr.span(DISPATCH, op, || {
            state.served.pipeline().run_seeded(cc, &seeds)
        })?;
        let scores = tr.span(READBACK, op, || run.read_any(cc, "scores"))?;
        let top = tr.span(READBACK, op, || run.read_any(cc, "top"))?;
        let readback_bytes = ["scores", "top"]
            .iter()
            .filter_map(|b| run.layout(b))
            .map(|l| readback_bytes_for(l.texel_count()))
            .sum();
        run.finish(cc);
        let upload_bytes = upload_bytes_for(ScalarType::U8, img.layout().texel_count());
        cc.recycle_any(img);
        Ok(OpRecord {
            upload_bytes,
            readback_bytes,
            outputs: vec![scores, top],
        })
    }

    fn check(&self, op: u64, outputs: &[TensorData]) -> bool {
        outputs.len() == 2 && self.matches(op, outputs.first(), outputs.get(1))
    }

    fn inputs(&self, op: u64) -> Vec<Arc<TensorData>> {
        vec![Arc::clone(&self.images[op as usize % CNN_POOL])]
    }
}

impl Served for CnnInfer {
    type Out = PipelineResult;

    fn in_flight(&self, workers: usize) -> usize {
        workers
    }

    fn submit(
        &self,
        engine: &Engine,
        _registry: &KernelRegistry,
        op: u64,
    ) -> Result<JobHandle<PipelineResult>, ComputeError> {
        let [r1, r2, rd] = &self.residents;
        engine.submit_pipeline(
            PipelineJob::new(&self.spec)
                .source_tensor_shared(&self.images[op as usize % CNN_POOL])
                .source_resident(r1)
                .source_resident(r2)
                .source_resident(rd)
                .read("scores")
                .read("top"),
        )
    }

    fn verify(&self, op: u64, out: &PipelineResult) -> bool {
        self.matches(op, out.tensor("scores"), out.tensor("top"))
    }
}

// ---- paper_offload -------------------------------------------------------

/// Elements of the paper's `sum` (2^16).
const SUM_N: usize = 1 << 16;
/// Side of the paper's square `sgemm`.
const GEMM_SIDE: u32 = 64;
const GEMM_ALPHA: f32 = 1.5;
const GEMM_BETA: f32 = 0.5;
/// Distinct input sets, cycled by op number.
const PAPER_POOL: usize = 4;

struct PaperInputs {
    /// `sum` operands `a`, `b`, then `sgemm` operands `A`, `B`, `C`.
    tensors: [Arc<TensorData>; 5],
    sum_reference: Vec<f32>,
    gemm_reference: Vec<f32>,
}

/// The paper's §V pair on one direct context, no engine: f32 `sum` of
/// 2^16 elements then f32 `sgemm` 64×64, each uploaded, built, run and
/// read back. Rasteriser dispatch stays at the default `Auto`.
pub struct PaperOffload {
    sets: Vec<PaperInputs>,
}

impl PaperOffload {
    /// Inputs and references for `seed`.
    pub fn new(seed: u64, corrupt_reference: bool) -> PaperOffload {
        let n = GEMM_SIDE as usize;
        let sets = (0..PAPER_POOL as u64)
            .map(|i| {
                let a = data::random_f32(SUM_N, sub_seed(seed, 7, i), 1000.0);
                let b = data::random_f32(SUM_N, sub_seed(seed, 8, i), 1000.0);
                let ga = data::random_f32(n * n, sub_seed(seed, 9, i), 1.0);
                let gb = data::random_f32(n * n, sub_seed(seed, 10, i), 1.0);
                let gc = data::random_f32(n * n, sub_seed(seed, 11, i), 1.0);
                let mut sum_reference = sum::cpu_reference(&a, &b);
                let mut gemm_reference =
                    sgemm::cpu_reference_f32(n, n, n, &ga, &gb, &gc, GEMM_ALPHA, GEMM_BETA);
                if corrupt_reference {
                    corrupt(&mut sum_reference);
                    corrupt(&mut gemm_reference);
                }
                PaperInputs {
                    tensors: [a, b, ga, gb, gc].map(|v| Arc::new(TensorData::F32(v))),
                    sum_reference,
                    gemm_reference,
                }
            })
            .collect();
        PaperOffload { sets }
    }
}

impl DirectOp for PaperOffload {
    fn run(
        &self,
        cc: &mut ComputeContext,
        _registry: Option<&KernelRegistry>,
        op: u64,
        tr: &mut Tracer,
    ) -> Result<OpRecord, ComputeError> {
        let [a, b, ga, gb, gc] = &self.sets[op as usize % PAPER_POOL].tensors;
        let n = GEMM_SIDE;
        let texels = |l: gpes_core::addressing::ArrayLayout| l.texel_count();
        let mut upload_bytes = 0;

        let a = tr.span(UPLOAD, op, || cc.upload(f32_input(a)))?;
        let b = tr.span(UPLOAD, op, || cc.upload(f32_input(b)))?;
        let kernel = tr.span(BUILD, op, || sum::build_f32(cc, &a, &b))?;
        let out = tr.span(DISPATCH, op, || {
            cc.run_to_array_with::<f32>(&kernel, &Bindings::new())
        })?;
        let sums = tr.span(READBACK, op, || cc.read_array(&out, Readback::DirectFbo))?;
        upload_bytes += upload_bytes_for(ScalarType::F32, texels(a.layout()) + texels(b.layout()));
        let mut readback_bytes = readback_bytes_for(texels(out.layout()));
        cc.recycle_array(a);
        cc.recycle_array(b);
        cc.recycle_array(out);

        let ma = tr.span(UPLOAD, op, || cc.upload_matrix(n, n, f32_input(ga)))?;
        let mb = tr.span(UPLOAD, op, || cc.upload_matrix(n, n, f32_input(gb)))?;
        let mc = tr.span(UPLOAD, op, || cc.upload_matrix(n, n, f32_input(gc)))?;
        let kernel = tr.span(BUILD, op, || {
            sgemm::build_f32(cc, &ma, &mb, &mc, GEMM_ALPHA, GEMM_BETA)
        })?;
        let out = tr.span(DISPATCH, op, || {
            cc.run_to_array_with::<f32>(&kernel, &Bindings::new())
        })?;
        let product = tr.span(READBACK, op, || cc.read_array(&out, Readback::DirectFbo))?;
        upload_bytes += upload_bytes_for(
            ScalarType::F32,
            texels(ma.layout()) + texels(mb.layout()) + texels(mc.layout()),
        );
        readback_bytes += readback_bytes_for(texels(out.layout()));
        cc.recycle_matrix(ma);
        cc.recycle_matrix(mb);
        cc.recycle_matrix(mc);
        cc.recycle_array(out);

        Ok(OpRecord {
            upload_bytes,
            readback_bytes,
            outputs: vec![TensorData::F32(sums), TensorData::F32(product)],
        })
    }

    fn check(&self, op: u64, outputs: &[TensorData]) -> bool {
        let set = &self.sets[op as usize % PAPER_POOL];
        outputs.len() == 2
            && f32_output(&outputs[..1], &set.sum_reference)
            && f32_output(&outputs[1..], &set.gemm_reference)
    }

    fn inputs(&self, op: u64) -> Vec<Arc<TensorData>> {
        self.sets[op as usize % PAPER_POOL].tensors.to_vec()
    }
}
