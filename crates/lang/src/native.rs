//! The native engine: load and drive machine code compiled from
//! [`crate::emit_rust`] output.
//!
//! `prepare` turns optimized bytecode into a loaded `cdylib`: emit the
//! Rust module, hash it (FNV-1a over the full source, so any change to
//! program *or* prelude re-keys), and either `dlopen` a cached
//! `lib{hash}.so` from the on-disk artifact cache
//! (`SKIL_NATIVE_CACHE_DIR`, default `$TMPDIR/skil-native-cache`) or
//! compile one with the host `rustc` (`SKIL_NATIVE_RUSTC` overrides;
//! compiled to a name unique to the build and `rename`d, so concurrent
//! builders — threads of one process or processes sharing a cache dir —
//! never observe a half-written artifact or each other's temp file).
//! Loaded modules are additionally memoized in-process by hash. Modules are
//! never `dlclose`d — leaked handles are tiny and unloading a library
//! with live generated `fn` pointers is never worth the risk.
//!
//! At run time the real [`Vm`] stays in charge host-side: the generated
//! `skil_main` calls back through a `HostVt` vtable for charges, array
//! access, printing, and whole skeleton dispatch (so virtual time and
//! skeleton semantics are *shared* with the VM, not reimplemented).
//! A skeleton's argument functions never run in the module: the VM's
//! kernel executors run them, exactly as under the `vm` engine. Panics
//! never cross the FFI boundary in either direction: host callbacks
//! catch and stash their payload (resumed verbatim after the module
//! returns failure, so `SimAbort` and `skil runtime:` classification in
//! the runtime is engine-independent), and the generated module reports
//! its own panics through `set_error`.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::env;
use std::ffi::c_void;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use skil_runtime::{Machine, Run, SimFailure};

use crate::bytecode::Program;
use crate::emit_rust::{emit_rust, ABI_VERSION};
use crate::host::{get_elem, part_bounds, to_uindex};
use crate::sym::Names;
use crate::value::Value;
use crate::vm::{Host, RunTables, Sl, Vm};

// ---------------------------------------------------------------------
// FFI surface — layout-identical to the generated prelude.
// ---------------------------------------------------------------------

#[repr(C)]
#[derive(Clone, Copy)]
struct FfiVal {
    tag: u64,
    a: u64,
    b: u64,
}

const T_UNIT: u64 = 0;
const T_INT: u64 = 1;
const T_FLT: u64 = 2;
const T_ARR: u64 = 3;
const T_IX: u64 = 4;
const T_BYTES: u64 = 5;

/// Host callback vtable handed to the generated module. Must stay
/// layout-identical to `HostVt` in the `emit_rust` prelude.
#[repr(C)]
#[derive(Clone, Copy)]
struct HostVt {
    // the generated module accumulates charges locally and flushes a
    // pre-summed cycle count at host-visible points
    charge: extern "C" fn(*mut c_void, u64) -> i32,
    get_elem: extern "C" fn(*mut c_void, u64, i64, i64, *mut FfiVal) -> i32,
    put_elem: extern "C" fn(*mut c_void, u64, i64, i64, *const FfiVal, *const u8, usize) -> i32,
    part_bounds: extern "C" fn(*mut c_void, u64, *mut i64) -> i32,
    print: extern "C" fn(*mut c_void, *const FfiVal, *const u8, usize) -> i32,
    skel: extern "C" fn(*mut c_void, u32, *const FfiVal, u32, *const u8, usize, *mut FfiVal) -> i32,
    set_error: extern "C" fn(*mut c_void, *const u8, usize),
}

const HOST_VTABLE: HostVt = HostVt {
    charge: cb_charge,
    get_elem: cb_get_elem,
    put_elem: cb_put_elem,
    part_bounds: cb_part_bounds,
    print: cb_print,
    skel: cb_skel,
    set_error: cb_set_error,
};

// ---------------------------------------------------------------------
// Value wire codec (mirror of the generated prelude's `enc`/`dec`).
// ---------------------------------------------------------------------

/// Encode a value for sending: `T_BYTES` payloads carry an *offset*
/// into `buf`.
fn enc(v: &Value, buf: &mut Vec<u8>) -> FfiVal {
    match v {
        Value::Unit => FfiVal { tag: T_UNIT, a: 0, b: 0 },
        Value::Int(x) => FfiVal { tag: T_INT, a: *x as u64, b: 0 },
        Value::Float(x) => FfiVal { tag: T_FLT, a: x.to_bits(), b: 0 },
        Value::Array(h) => FfiVal { tag: T_ARR, a: *h as u64, b: 0 },
        Value::Index(ix) => FfiVal { tag: T_IX, a: ix[0] as u64, b: ix[1] as u64 },
        other => {
            let start = buf.len();
            enc_value_bytes(other, buf);
            FfiVal { tag: T_BYTES, a: start as u64, b: (buf.len() - start) as u64 }
        }
    }
}

/// Decode a value *received* from the module: `T_BYTES` payloads carry
/// an offset into the caller-provided byte buffer.
///
/// # Safety
/// `base`/`blen` must describe the module's live encode buffer.
unsafe fn dec(fv: &FfiVal, base: *const u8, blen: usize) -> Value {
    match fv.tag {
        T_UNIT => Value::Unit,
        T_INT => Value::Int(fv.a as i64),
        T_FLT => Value::Float(f64::from_bits(fv.a)),
        T_ARR => Value::Array(fv.a as usize),
        T_IX => Value::Index([fv.a as i64, fv.b as i64]),
        T_BYTES => {
            let s = std::slice::from_raw_parts(base, blen);
            let mut p = fv.a as usize;
            dec_value_bytes(s, &mut p)
        }
        other => panic!("skil native: bad ffi tag {other}"),
    }
}

fn enc_value_bytes(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Unit => buf.push(0),
        Value::Int(x) => {
            buf.push(1);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Array(h) => {
            buf.push(3);
            buf.extend_from_slice(&(*h as u64).to_le_bytes());
        }
        Value::Index(ix) => {
            buf.push(4);
            for c in ix {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        Value::Bounds(lo, up) => {
            buf.push(5);
            for c in [lo[0], lo[1], up[0], up[1]] {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        Value::Struct(sid, fields) => {
            buf.push(6);
            buf.extend_from_slice(&sid.to_le_bytes());
            buf.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for f in fields {
                enc_value_bytes(f, buf);
            }
        }
        Value::List(items) => {
            buf.push(7);
            buf.extend_from_slice(&(items.len() as u64).to_le_bytes());
            for item in items.iter() {
                enc_value_bytes(item, buf);
            }
        }
    }
}

/// Encode one slot for *returning* to the module: absolute pointer.
fn enc_abs(v: &Sl, buf: &mut Vec<u8>) -> FfiVal {
    buf.clear();
    let mut fv = match v {
        Sl::I(x) => FfiVal { tag: T_INT, a: *x as u64, b: 0 },
        Sl::F(x) => FfiVal { tag: T_FLT, a: x.to_bits(), b: 0 },
        Sl::V(v) => enc(v, buf),
    };
    if fv.tag == T_BYTES {
        fv.a += buf.as_ptr() as u64;
    }
    fv
}

fn rd<const N: usize>(s: &[u8], p: &mut usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&s[*p..*p + N]);
    *p += N;
    out
}

fn dec_value_bytes(s: &[u8], p: &mut usize) -> Value {
    let tag = s[*p];
    *p += 1;
    match tag {
        0 => Value::Unit,
        1 => Value::Int(i64::from_le_bytes(rd(s, p))),
        2 => Value::Float(f64::from_bits(u64::from_le_bytes(rd(s, p)))),
        3 => Value::Array(u64::from_le_bytes(rd(s, p)) as usize),
        4 => Value::Index([i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))]),
        5 => {
            let lo = [i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))];
            let up = [i64::from_le_bytes(rd(s, p)), i64::from_le_bytes(rd(s, p))];
            Value::Bounds(lo, up)
        }
        6 => {
            let sid = u32::from_le_bytes(rd(s, p));
            let n = u32::from_le_bytes(rd(s, p)) as usize;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(dec_value_bytes(s, p));
            }
            Value::Struct(sid, fields)
        }
        7 => {
            let n = u64::from_le_bytes(rd(s, p)) as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(dec_value_bytes(s, p));
            }
            Value::List(crate::value::ConsList::from_vec(items))
        }
        other => panic!("skil native: bad wire tag {other}"),
    }
}

// ---------------------------------------------------------------------
// The loaded module.
// ---------------------------------------------------------------------

type CtxNewFn = extern "C" fn(*mut c_void, *const HostVt, i64, i64, *const u64) -> *mut c_void;
type CtxFreeFn = extern "C" fn(*mut c_void);
type MainFn = extern "C" fn(*mut c_void) -> i32;

/// A loaded generated module: resolved entry points of one program.
pub(crate) struct NativeModule {
    ctx_new: CtxNewFn,
    ctx_free: CtxFreeFn,
    main: MainFn,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One slot per program hash: the loaded module once there is one, and
/// the lock that queues concurrent first requests for the same program
/// behind a single build.
type ModuleSlot = Arc<Mutex<Option<Arc<NativeModule>>>>;

fn registry() -> &'static Mutex<HashMap<u64, ModuleSlot>> {
    static REG: OnceLock<Mutex<HashMap<u64, ModuleSlot>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cache_dir() -> PathBuf {
    match env::var_os("SKIL_NATIVE_CACHE_DIR") {
        Some(d) => PathBuf::from(d),
        None => env::temp_dir().join("skil-native-cache"),
    }
}

/// Emit, compile (or reuse the cached artifact), and load the native
/// module for `code`. `Err` means the native engine is unavailable on
/// this host or for this program — callers fall back to the VM.
pub(crate) fn prepare(code: &Program, names: &Names) -> Result<Arc<NativeModule>, String> {
    let src = emit_rust(code, names);
    let hash = fnv1a64(src.as_bytes());
    let slot =
        registry().lock().unwrap_or_else(|e| e.into_inner()).entry(hash).or_default().clone();
    // Held across the build: two threads first-compiling one program
    // would otherwise run two `rustc`s onto one temp file, and the
    // loser would report (and its `Compiled` memoize) a failure. A
    // failure is not kept here, so a later `Compiled` may try again.
    let mut loaded = slot.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = &*loaded {
        return Ok(m.clone());
    }
    let m = Arc::new(load_or_build(&src, hash)?);
    *loaded = Some(m.clone());
    Ok(m)
}

#[cfg(not(unix))]
fn load_or_build(_src: &str, _hash: u64) -> Result<NativeModule, String> {
    Err("the native engine requires a Unix host (dlopen)".to_string())
}

#[cfg(unix)]
mod dl {
    use std::ffi::{c_char, c_int, c_void};
    extern "C" {
        pub fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlerror() -> *mut c_char;
    }
    pub const RTLD_NOW: c_int = 2;
}

#[cfg(unix)]
fn dl_error() -> String {
    let p = unsafe { dl::dlerror() };
    if p.is_null() {
        "unknown dlerror".to_string()
    } else {
        unsafe { std::ffi::CStr::from_ptr(p) }.to_string_lossy().into_owned()
    }
}

#[cfg(unix)]
fn dl_sym(handle: *mut c_void, name: &str) -> Result<*mut c_void, String> {
    let cname = std::ffi::CString::new(name).expect("symbol name");
    let p = unsafe { dl::dlsym(handle, cname.as_ptr()) };
    if p.is_null() {
        Err(format!("dlsym({name}) failed: {}", dl_error()))
    } else {
        Ok(p)
    }
}

#[cfg(unix)]
fn load_or_build(src: &str, hash: u64) -> Result<NativeModule, String> {
    use std::os::unix::ffi::OsStrExt;

    let dir = cache_dir();
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create native cache dir {}: {e}", dir.display()))?;
    let lib = dir.join(format!("lib{hash:016x}.so"));
    if !lib.exists() {
        // Source and artifact are both written under a name unique to
        // this build (`prepare` admits one build per hash and process),
        // then renamed into place: processes sharing the cache never
        // see a torn file, whichever of them finishes first.
        let tmp_stem = format!(".tmp-{}-{hash:016x}", std::process::id());
        let rs = dir.join(format!("{hash:016x}.rs"));
        let tmp_rs = dir.join(format!("{tmp_stem}.rs"));
        std::fs::write(&tmp_rs, src)
            .and_then(|()| std::fs::rename(&tmp_rs, &rs))
            .map_err(|e| format!("cannot write {}: {e}", rs.display()))?;
        let rustc = env::var("SKIL_NATIVE_RUSTC").unwrap_or_else(|_| "rustc".to_string());
        let tmp = dir.join(format!("{tmp_stem}.so"));
        // Unoptimized: the module is `main`'s glue around host calls
        // (every argument function runs on the VM's kernel executors),
        // so optimizing it costs `rustc` several times the build time
        // and saves a request no measurable host time (DESIGN.md §15).
        let out = std::process::Command::new(&rustc)
            .arg("--edition=2021")
            .arg("--crate-type=cdylib")
            .arg("-C")
            .arg("opt-level=0")
            .arg("-o")
            .arg(&tmp)
            .arg(&rs)
            .output()
            .map_err(|e| format!("cannot run `{rustc}`: {e}"))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp);
            return Err(format!(
                "native codegen failed ({}): {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        if let Err(e) = std::fs::rename(&tmp, &lib) {
            let _ = std::fs::remove_file(&tmp);
            // another builder installed the same content-addressed
            // artifact first: that one serves equally well
            if !lib.exists() {
                return Err(format!("cannot install native artifact: {e}"));
            }
        }
    }
    let cpath = std::ffi::CString::new(lib.as_os_str().as_bytes()).expect("artifact path");
    let handle = unsafe { dl::dlopen(cpath.as_ptr(), dl::RTLD_NOW) };
    if handle.is_null() {
        return Err(format!("dlopen({}) failed: {}", lib.display(), dl_error()));
    }
    // SAFETY: symbol signatures are fixed by the emitted prelude; the
    // skil_abi version check below rejects any stale/stranger artifact.
    unsafe {
        type AbiFn = extern "C" fn() -> u64;
        let abi: AbiFn = std::mem::transmute(dl_sym(handle, "skil_abi")?);
        if abi() != ABI_VERSION {
            return Err(format!(
                "native module ABI {} != expected {ABI_VERSION} (stale cache?)",
                abi()
            ));
        }
        Ok(NativeModule {
            ctx_new: std::mem::transmute::<*mut c_void, CtxNewFn>(dl_sym(handle, "skil_ctx_new")?),
            ctx_free: std::mem::transmute::<*mut c_void, CtxFreeFn>(dl_sym(
                handle,
                "skil_ctx_free",
            )?),
            main: std::mem::transmute::<*mut c_void, MainFn>(dl_sym(handle, "skil_main")?),
        })
    }
}

// ---------------------------------------------------------------------
// Per-processor host state and callbacks.
// ---------------------------------------------------------------------

type VmStatic = Vm<'static, 'static, 'static>;

/// One processor's callback target. Shared (`&HostBox`) across
/// reentrant FFI frames; interior mutability throughout.
struct HostBox {
    /// The type-erased `&mut Vm` this run executes under. A callback
    /// only arrives while `skil_main` runs and no host frame holds a
    /// reference into the VM: `cb_skel` runs the whole skeleton call,
    /// argument functions included, before it returns to the module.
    vm: *mut VmStatic,
    /// Panic payload caught in a callback, resumed verbatim host-side
    /// after the module reports failure.
    stash: RefCell<Option<Box<dyn Any + Send>>>,
    /// Diagnostic from the module's own panics (via `set_error`).
    error: RefCell<Option<String>>,
    /// Scratch operand stack for skeleton dispatch.
    stack: RefCell<Vec<Sl>>,
    /// Encode buffer for values returned to the module.
    outbuf: RefCell<Vec<u8>>,
}

impl HostBox {
    fn new(vm: *mut VmStatic) -> HostBox {
        HostBox {
            vm,
            stash: RefCell::new(None),
            error: RefCell::new(None),
            stack: RefCell::new(Vec::new()),
            outbuf: RefCell::new(Vec::new()),
        }
    }

    /// The VM of the run this box serves.
    #[allow(clippy::mut_from_ref)]
    fn vm(&self) -> &mut VmStatic {
        // SAFETY: `vm` outlives the module's run; see the field.
        unsafe { &mut *self.vm }
    }

    /// After the module reported failure: re-raise what really
    /// happened, preserving the payload for the runtime's classifier.
    fn raise(&self) -> ! {
        if let Some(p) = self.stash.borrow_mut().take() {
            resume_unwind(p);
        }
        let msg = self
            .error
            .borrow_mut()
            .take()
            .unwrap_or_else(|| "skil native: module failed without a diagnostic".to_string());
        panic!("{msg}");
    }
}

/// Run a callback body; a panic is stashed (not propagated across the
/// FFI boundary) and signalled to the module as a nonzero status.
fn guard(hb: &HostBox, f: impl FnOnce()) -> i32 {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(()) => 0,
        Err(p) => {
            *hb.stash.borrow_mut() = Some(p);
            1
        }
    }
}

fn hostbox(h: *mut c_void) -> &'static HostBox {
    unsafe { &*(h as *const HostBox) }
}

extern "C" fn cb_charge(h: *mut c_void, sum: u64) -> i32 {
    let hb = hostbox(h);
    guard(hb, || hb.vm().host.proc.charge(sum))
}

extern "C" fn cb_get_elem(h: *mut c_void, arr: u64, i: i64, j: i64, out: *mut FfiVal) -> i32 {
    let hb = hostbox(h);
    guard(hb, || {
        let v = get_elem(&hb.vm().host.arrays, arr as usize, to_uindex([i, j]));
        let mut ob = hb.outbuf.borrow_mut();
        let fv = enc_abs(&v, &mut ob);
        unsafe {
            *out = fv;
        }
    })
}

extern "C" fn cb_put_elem(
    h: *mut c_void,
    arr: u64,
    i: i64,
    j: i64,
    fv: *const FfiVal,
    base: *const u8,
    blen: usize,
) -> i32 {
    let hb = hostbox(h);
    guard(hb, || {
        // SAFETY: the module passes its value and its live encode
        // buffer for the length of the call
        let v = Sl::from_value(unsafe { dec(&*fv, base, blen) });
        hb.vm().host.put_elem(arr as usize, to_uindex([i, j]), v);
    })
}

extern "C" fn cb_part_bounds(h: *mut c_void, arr: u64, out: *mut i64) -> i32 {
    let hb = hostbox(h);
    guard(hb, || {
        let b = part_bounds(&hb.vm().host.arrays, arr as usize);
        let vals = [b.lower[0] as i64, b.lower[1] as i64, b.upper[0] as i64, b.upper[1] as i64];
        unsafe {
            std::ptr::copy_nonoverlapping(vals.as_ptr(), out, 4);
        }
    })
}

extern "C" fn cb_print(h: *mut c_void, fv: *const FfiVal, base: *const u8, blen: usize) -> i32 {
    let hb = hostbox(h);
    guard(hb, || {
        // SAFETY: as in `cb_put_elem`
        let v = unsafe { dec(&*fv, base, blen) };
        hb.vm().host.print(&v);
    })
}

extern "C" fn cb_skel(
    h: *mut c_void,
    site: u32,
    argv: *const FfiVal,
    argc: u32,
    base: *const u8,
    blen: usize,
    out: *mut FfiVal,
) -> i32 {
    let hb = hostbox(h);
    guard(hb, || {
        let args = unsafe { std::slice::from_raw_parts(argv, argc as usize) };
        let res = {
            let mut stack = hb.stack.borrow_mut();
            stack.clear();
            for fv in args {
                // SAFETY: as in `cb_put_elem`
                stack.push(Sl::from_value(unsafe { dec(fv, base, blen) }));
            }
            hb.vm().skel(site as usize, &mut stack);
            stack.pop().expect("skeleton result")
        };
        let mut ob = hb.outbuf.borrow_mut();
        let fv = enc_abs(&res, &mut ob);
        unsafe {
            *out = fv;
        }
    })
}

extern "C" fn cb_set_error(h: *mut c_void, ptr: *const u8, len: usize) {
    let hb = hostbox(h);
    let msg = unsafe { std::slice::from_raw_parts(ptr, len) };
    *hb.error.borrow_mut() = Some(String::from_utf8_lossy(msg).into_owned());
}

/// Frees the generated context even when the run unwinds.
struct CtxGuard {
    free: extern "C" fn(*mut c_void),
    gctx: *mut c_void,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        (self.free)(self.gctx);
    }
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

/// Per-[`crate::Compiled`] memo of the prepared module: emit + hash +
/// load happen once per compiled program, not once per run.
#[derive(Default)]
pub(crate) struct ModuleCache(std::sync::OnceLock<Result<Arc<NativeModule>, String>>);

impl std::fmt::Debug for ModuleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ModuleCache")
    }
}

impl ModuleCache {
    pub(crate) fn prepare(
        &self,
        code: &Program,
        names: &Names,
    ) -> Result<Arc<NativeModule>, String> {
        self.0.get_or_init(|| prepare(code, names)).clone()
    }
}

/// Execute a prepared native module on a machine — the native-engine
/// mirror of [`crate::vm::try_run_program_vm_faults`], sharing its
/// per-run tables and the whole `Vm` host side.
pub(crate) fn try_run_native_faults(
    module: &Arc<NativeModule>,
    compiled: &crate::Compiled,
    machine: &Machine,
    faults: Option<&skil_runtime::FaultPlan>,
) -> Result<Run<Vec<String>>, SimFailure> {
    let code = &compiled.code;
    let main = code.main.expect("instantiated program has main");
    assert_eq!(code.funcs[main].nparams, 0, "main takes no arguments");
    let tables = RunTables::resolve(&compiled.fo, code, &machine.config().cost);
    machine.try_run_faults(faults, |p| {
        let me = p.id() as i64;
        let np = p.nprocs() as i64;
        let mut vm = Vm::new(code, &compiled.kernel, &tables, p);
        let costs_ptr = tables.costs.as_ptr();
        let hb = HostBox::new(&mut vm as *mut Vm<'_, '_, '_> as *mut VmStatic);
        let gctx =
            (module.ctx_new)(&hb as *const HostBox as *mut c_void, &HOST_VTABLE, me, np, costs_ptr);
        let _guard = CtxGuard { free: module.ctx_free, gctx };
        let st = (module.main)(gctx);
        if st != 0 {
            hb.raise();
        }
        std::mem::take(&mut vm.host.output)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // pinned so on-disk artifact keys survive refactors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"skil"), fnv1a64(b"skil"));
        assert_ne!(fnv1a64(b"skil"), fnv1a64(b"skim"));
    }

    #[test]
    fn value_codec_roundtrips() {
        use crate::value::ConsList;
        let vals = [
            Value::Unit,
            Value::Int(-7),
            Value::Float(2.5),
            Value::Array(3),
            Value::Index([4, -1]),
            Value::Bounds([0, 0], [7, 7]),
            Value::Struct(2, vec![Value::Int(1), Value::Float(0.5)]),
            Value::List(ConsList::from_vec(vec![Value::Int(1), Value::Int(2)])),
        ];
        let mut buf = Vec::new();
        let fvs: Vec<FfiVal> = vals.iter().map(|v| enc(v, &mut buf)).collect();
        let base = buf.as_ptr();
        for (v, fv) in vals.iter().zip(&fvs) {
            let back = unsafe { dec(fv, base, buf.len()) };
            assert_eq!(*v, back);
        }
        // a returned slot carries the scalar tags unboxed and an
        // aggregate at an absolute address
        let mut out = Vec::new();
        for v in &vals {
            let fv = enc_abs(&Sl::from_value_ref(v), &mut out);
            // SAFETY: `out` holds the encoded bytes and is not touched
            // until the next iteration; a scalar reads no bytes
            let back = match fv.tag {
                T_BYTES => unsafe { dec(&FfiVal { a: 0, ..fv }, fv.a as *const u8, fv.b as usize) },
                _ => unsafe { dec(&fv, out.as_ptr(), 0) },
            };
            assert_eq!(*v, back);
        }
    }
}
