//! The Roadrunner shim: sidecar lifecycle manager and memory mediator.
//!
//! One shim runs beside each function sandbox (or beside a group of
//! mutually-trusting functions sharing a Wasm VM in user-space mode). It
//! owns the VM lifecycle — "memory configuration, binary loading, and
//! runtime interaction" (paper §3.2.2) — and mediates *every* host access
//! to guest linear memory through registered regions with bounds checks.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use roadrunner_platform::FunctionBundle;
use roadrunner_platform::BundleKind;
use roadrunner_vkernel::node::{Node, Sandbox};
use roadrunner_wasi::WasiCtx;
use roadrunner_wasm::types::Value;
use roadrunner_wasm::{decode, Instance, Linker, Trap};

use crate::api::{register_roadrunner_api, ShimState};
use crate::config::ShimConfig;
use crate::error::RoadrunnerError;
use crate::guest::{ALLOCATE, DEALLOCATE};
use crate::region::MemoryRegion;

struct LoadedModule {
    instance: Instance,
    bundle: Arc<FunctionBundle>,
    /// Last observed linear-memory size, for RAM accounting.
    known_memory_len: usize,
}

/// A Roadrunner sidecar shim: one Wasm VM, one sandbox (cgroup), one or
/// more modules of the same workflow/tenant.
pub struct Shim {
    name: String,
    sandbox: Sandbox,
    config: ShimConfig,
    linker: Linker,
    modules: HashMap<String, LoadedModule>,
}

impl std::fmt::Debug for Shim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shim")
            .field("name", &self.name)
            .field("modules", &self.modules.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl Shim {
    /// Creates a shim on `node`, with its own sandbox named after it.
    pub fn new(name: impl Into<String>, node: &Node, config: ShimConfig) -> Self {
        let name = name.into();
        let sandbox = node.sandbox(format!("shim-{name}"));
        let mut linker = Linker::new();
        roadrunner_wasi::register::<ShimState>(&mut linker);
        register_roadrunner_api(&mut linker);
        Self { name, sandbox, config, linker, modules: HashMap::new() }
    }

    /// Shim name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sandbox charged for everything this shim and its guests do.
    pub fn sandbox(&self) -> &Sandbox {
        &self.sandbox
    }

    /// Names of loaded modules.
    pub fn module_names(&self) -> Vec<&str> {
        self.modules.keys().map(String::as_str).collect()
    }

    /// Transfer chunk size: the cost model's I/O chunk.
    pub fn io_chunk(&self) -> usize {
        self.sandbox.cost().io_chunk_bytes.max(1)
    }

    /// Loads `bundle` into this shim's VM as `module_name`.
    ///
    /// Enforces the paper's trust rule before co-locating: every already
    /// loaded module must share workflow *and* tenant with the newcomer.
    /// Charges cold-start costs (binary decode + VM init) when
    /// [`ShimConfig::charge_load_costs`] is set, and tracks the VM's
    /// initial memory in the sandbox's RAM account.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::TrustViolation`] on a workflow/tenant mismatch,
    /// [`RoadrunnerError::Config`] for non-Wasm bundles, decode and
    /// instantiation errors otherwise.
    pub fn load_module(
        &mut self,
        module_name: impl Into<String>,
        bundle: Arc<FunctionBundle>,
    ) -> Result<(), RoadrunnerError> {
        let module_name = module_name.into();
        for (existing_name, existing) in &self.modules {
            if !existing.bundle.trusts(&bundle) {
                return Err(RoadrunnerError::TrustViolation(format!(
                    "module `{module_name}` ({:?}/{:?}) may not share a VM with `{existing_name}` ({:?}/{:?})",
                    bundle.workflow(),
                    bundle.tenant(),
                    existing.bundle.workflow(),
                    existing.bundle.tenant(),
                )));
            }
        }
        let BundleKind::WasmModule { binary } = bundle.kind() else {
            return Err(RoadrunnerError::Config(format!(
                "bundle `{}` is not a Wasm module",
                bundle.name()
            )));
        };
        let module = decode::decode(binary).map_err(|e| {
            RoadrunnerError::Config(format!("bundle `{}`: {e}", bundle.name()))
        })?;

        if self.config.charge_load_costs {
            let cost = self.sandbox.cost();
            let load_ns = (binary.len() as f64 / cost.wasm_load_bytes_per_ns).round() as u64
                + cost.wasm_init_ns;
            self.sandbox.charge_user(load_ns);
        }

        let mut limits = self.config.engine_limits;
        if let Some(pages) = bundle.manifest().memory_limit_pages {
            limits.max_memory_pages = pages;
        }
        let state = ShimState::new(WasiCtx::new(self.sandbox.clone()));
        let instance = Instance::new(module, &self.linker, limits, Box::new(state))?;
        let memory_len = instance.memory().map(|m| m.len()).unwrap_or(0);
        self.sandbox.account().alloc(memory_len as u64);
        self.modules.insert(
            module_name,
            LoadedModule { instance, bundle, known_memory_len: memory_len },
        );
        Ok(())
    }

    fn module_mut(&mut self, name: &str) -> Result<&mut LoadedModule, RoadrunnerError> {
        self.modules
            .get_mut(name)
            .ok_or_else(|| RoadrunnerError::UnknownModule(name.to_owned()))
    }

    fn module_ref(&self, name: &str) -> Result<&LoadedModule, RoadrunnerError> {
        self.modules
            .get(name)
            .ok_or_else(|| RoadrunnerError::UnknownModule(name.to_owned()))
    }

    /// The bundle a module was loaded from.
    pub fn bundle_of(&self, module: &str) -> Result<&Arc<FunctionBundle>, RoadrunnerError> {
        Ok(&self.module_ref(module)?.bundle)
    }

    /// Current linear-memory size of a module.
    pub fn memory_len(&self, module: &str) -> Result<usize, RoadrunnerError> {
        Ok(self
            .module_ref(module)?
            .instance
            .memory()
            .map(|m| m.len())
            .unwrap_or(0))
    }

    /// Invokes an exported guest function, charging interpreted
    /// instructions as user CPU time and tracking memory growth.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::UnknownModule`] or any guest [`Trap`].
    pub fn invoke(
        &mut self,
        module: &str,
        func: &str,
        args: &[Value],
    ) -> Result<Vec<Value>, RoadrunnerError> {
        let wasm_instr_ns = self.sandbox.cost().wasm_instr_ns;
        let sandbox = self.sandbox.clone();
        let entry = self.module_mut(module)?;
        entry.instance.reset_instr_count();
        let result = entry.instance.invoke(func, args);
        let executed = entry.instance.instr_count();
        sandbox.charge_user((executed as f64 * wasm_instr_ns).round() as u64);
        // RAM accounting: linear memory only grows.
        let now_len = entry.instance.memory().map(|m| m.len()).unwrap_or(0);
        if now_len > entry.known_memory_len {
            sandbox.account().alloc((now_len - entry.known_memory_len) as u64);
            entry.known_memory_len = now_len;
        }
        result.map_err(RoadrunnerError::from)
    }

    /// Table 1 `read_memory_host`: copies a registered region out of the
    /// guest's linear memory into a host buffer, charging the Wasm VM I/O
    /// cost. This is the *only* copy Roadrunner pays on the source side.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::AccessViolation`] if the region was never
    /// registered (or is out of bounds).
    pub fn read_memory_host(
        &mut self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<Bytes, RoadrunnerError> {
        let sandbox = self.sandbox.clone();
        let entry = self.module_mut(module)?;
        let memory_len = entry.instance.memory().map(|m| m.len()).unwrap_or(0);
        let state = entry
            .instance
            .data::<ShimState>()
            .ok_or_else(|| RoadrunnerError::Config("host state is not ShimState".into()))?;
        state.regions().check(region, memory_len)?;
        let memory = entry
            .instance
            .memory()
            .ok_or_else(|| RoadrunnerError::Config("module has no memory".into()))?;
        let data = Bytes::copy_from_slice(memory.read(region.addr, region.len)?);
        sandbox.charge_user(sandbox.cost().vm_io_ns(data.len()));
        Ok(data)
    }

    /// Allocates an inbox of `len` bytes in the guest (via its exported
    /// `allocate_memory`) and registers it for host access, without
    /// writing anything yet. Streaming transfers fill it incrementally
    /// with [`Shim::write_into_inbox`].
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::MissingGuestApi`] if the guest exports no
    /// allocator; traps and access errors otherwise.
    pub fn allocate_inbox(
        &mut self,
        module: &str,
        len: usize,
    ) -> Result<MemoryRegion, RoadrunnerError> {
        let len = u32::try_from(len).map_err(|_| {
            RoadrunnerError::AccessViolation("payload exceeds 32-bit address space".into())
        })?;
        let addr = match self.invoke(module, ALLOCATE, &[Value::I32(len as i32)]) {
            Ok(values) => values[0].as_i32().ok_or_else(|| {
                RoadrunnerError::MissingGuestApi(format!("{ALLOCATE} returned no address"))
            })? as u32,
            Err(RoadrunnerError::Trap(Trap::BadExport(_))) => {
                return Err(RoadrunnerError::MissingGuestApi(ALLOCATE.to_owned()))
            }
            Err(e) => return Err(e),
        };
        let region = MemoryRegion::new(addr, len);
        let entry = self.module_mut(module)?;
        let state = entry
            .instance
            .data_mut::<ShimState>()
            .ok_or_else(|| RoadrunnerError::Config("host state is not ShimState".into()))?;
        state.regions_mut().register(region);
        Ok(region)
    }

    /// Writes `data` into a registered inbox at `offset`, charging the
    /// per-byte Wasm VM I/O cost. The write must stay inside `region`.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::AccessViolation`] if the slice would leave the
    /// registered region.
    pub fn write_into_inbox(
        &mut self,
        module: &str,
        region: MemoryRegion,
        offset: u32,
        data: &[u8],
    ) -> Result<(), RoadrunnerError> {
        let slice = MemoryRegion::new(region.addr + offset, data.len() as u32);
        if !region.contains(&slice) {
            return Err(RoadrunnerError::AccessViolation(format!(
                "write of {} bytes at offset {offset} escapes region [{}, {})",
                data.len(),
                region.addr,
                region.end()
            )));
        }
        let sandbox = self.sandbox.clone();
        let entry = self.module_mut(module)?;
        let memory_len = entry.instance.memory().map(|m| m.len()).unwrap_or(0);
        let state = entry
            .instance
            .data::<ShimState>()
            .ok_or_else(|| RoadrunnerError::Config("host state is not ShimState".into()))?;
        state.regions().check(slice, memory_len)?;
        let memory = entry
            .instance
            .memory_mut()
            .ok_or_else(|| RoadrunnerError::Config("module has no memory".into()))?;
        memory.write(slice.addr, data)?;
        let now_len = entry.instance.memory().map(|m| m.len()).unwrap_or(0);
        if now_len > entry.known_memory_len {
            sandbox.account().alloc((now_len - entry.known_memory_len) as u64);
            entry.known_memory_len = now_len;
        }
        sandbox.charge_user(sandbox.cost().vm_io_ns(data.len()));
        Ok(())
    }

    /// Table 1 `write_memory_host`: asks the guest allocator for space
    /// (`allocate_memory`), writes `data` into it, registers the region
    /// and returns it. This is the *only* copy Roadrunner pays on the
    /// target side.
    ///
    /// # Errors
    ///
    /// [`RoadrunnerError::MissingGuestApi`] if the guest exports no
    /// allocator; traps and access errors otherwise.
    pub fn write_memory_host(
        &mut self,
        module: &str,
        data: &[u8],
    ) -> Result<MemoryRegion, RoadrunnerError> {
        let region = self.allocate_inbox(module, data.len())?;
        self.write_into_inbox(module, region, 0, data)?;
        Ok(region)
    }

    /// Releases a region: calls the guest's `deallocate_memory` and
    /// revokes host access.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Shim::invoke`].
    pub fn deallocate(
        &mut self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<(), RoadrunnerError> {
        self.invoke(module, DEALLOCATE, &[Value::I32(region.addr as i32)])?;
        let entry = self.module_mut(module)?;
        if let Some(state) = entry.instance.data_mut::<ShimState>() {
            state.regions_mut().revoke(region);
        }
        Ok(())
    }

    /// Takes the outbox region the guest last handed over via
    /// `send_to_host`.
    pub fn take_outbox(&mut self, module: &str) -> Result<Option<MemoryRegion>, RoadrunnerError> {
        let entry = self.module_mut(module)?;
        Ok(entry
            .instance
            .data_mut::<ShimState>()
            .and_then(ShimState::take_outbox))
    }

    /// Looks at the pending outbox without consuming it.
    pub fn peek_outbox(&self, module: &str) -> Result<Option<MemoryRegion>, RoadrunnerError> {
        let entry = self.module_ref(module)?;
        Ok(entry
            .instance
            .data::<ShimState>()
            .and_then(ShimState::peek_outbox))
    }

    /// Cost-free verification read used by tests and integrity checks —
    /// still subject to region registration and bounds checks, but does
    /// not charge the sandbox (it models offline inspection, not data
    /// plane traffic).
    pub fn peek_memory(
        &self,
        module: &str,
        region: MemoryRegion,
    ) -> Result<Bytes, RoadrunnerError> {
        let entry = self.module_ref(module)?;
        let memory_len = entry.instance.memory().map(|m| m.len()).unwrap_or(0);
        let state = entry
            .instance
            .data::<ShimState>()
            .ok_or_else(|| RoadrunnerError::Config("host state is not ShimState".into()))?;
        state.regions().check(region, memory_len)?;
        let memory = entry
            .instance
            .memory()
            .ok_or_else(|| RoadrunnerError::Config("module has no memory".into()))?;
        Ok(Bytes::copy_from_slice(memory.read(region.addr, region.len)?))
    }

    /// Direct WASI-context access for a module (installing sockets,
    /// seeding files, reading stdout).
    pub fn wasi_mut(&mut self, module: &str) -> Result<&mut WasiCtx, RoadrunnerError> {
        let entry = self.module_mut(module)?;
        entry
            .instance
            .data_mut::<ShimState>()
            .map(ShimState::wasi_mut)
            .ok_or_else(|| RoadrunnerError::Config("host state is not ShimState".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest;
    use roadrunner_vkernel::Testbed;
    use roadrunner_wasm::encode;

    fn wasm_bundle(name: &str, module: roadrunner_wasm::Module) -> Arc<FunctionBundle> {
        Arc::new(
            FunctionBundle::wasm(name, encode::encode(&module))
                .with_workflow("wf")
                .with_tenant("acme"),
        )
    }

    fn shim_on(bed: &Testbed) -> Shim {
        Shim::new("test", bed.node(0), ShimConfig::default().with_load_costs(false))
    }

    #[test]
    fn load_and_invoke() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        shim.invoke("a", "produce", &[Value::I32(4096), Value::I32(16)]).unwrap();
        assert_eq!(
            shim.take_outbox("a").unwrap(),
            Some(MemoryRegion::new(4096, 16))
        );
        assert_eq!(shim.take_outbox("a").unwrap(), None);
        assert!(shim.sandbox().account().user_ns() > 0, "instructions charged");
    }

    #[test]
    fn trust_rule_blocks_foreign_modules() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        let foreign = Arc::new(
            FunctionBundle::wasm("evil", encode::encode(&guest::consumer()))
                .with_workflow("other-wf")
                .with_tenant("acme"),
        );
        let err = shim.load_module("evil", foreign).unwrap_err();
        assert!(matches!(err, RoadrunnerError::TrustViolation(_)));
        // Same workflow + tenant is allowed.
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        assert_eq!(shim.module_names().len(), 2);
    }

    #[test]
    fn read_requires_registration() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("a", wasm_bundle("a", guest::producer())).unwrap();
        let err = shim
            .read_memory_host("a", MemoryRegion::new(4096, 8))
            .unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
        // After the guest registers via send_to_host, reads succeed.
        shim.invoke("a", "produce", &[Value::I32(4096), Value::I32(8)]).unwrap();
        shim.read_memory_host("a", MemoryRegion::new(4096, 8)).unwrap();
        // …but only inside the registered window.
        let err = shim
            .read_memory_host("a", MemoryRegion::new(4100, 8))
            .unwrap_err();
        assert!(matches!(err, RoadrunnerError::AccessViolation(_)));
    }

    #[test]
    fn write_allocates_registers_and_copies() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let region = shim.write_memory_host("b", b"roadrunner payload").unwrap();
        assert_eq!(region.len, 18);
        let back = shim.peek_memory("b", region).unwrap();
        assert_eq!(&back[..], b"roadrunner payload");
        // The consumer can now be invoked over the delivered region.
        let ack = shim
            .invoke(
                "b",
                "consume",
                &[Value::I32(region.addr as i32), Value::I32(region.len as i32)],
            )
            .unwrap();
        assert!(ack[0].as_i32().is_some());
    }

    #[test]
    fn write_grows_memory_and_tracks_ram() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let ram_before = shim.sandbox().account().ram_current();
        let payload = vec![7u8; 10 << 20];
        let region = shim.write_memory_host("b", &payload).unwrap();
        assert_eq!(region.len as usize, payload.len());
        let ram_after = shim.sandbox().account().ram_current();
        assert!(
            ram_after >= ram_before + (10 << 20),
            "RAM accounting must see the growth: {ram_before} -> {ram_after}"
        );
        assert_eq!(&shim.peek_memory("b", region).unwrap()[..], &payload[..]);
    }

    #[test]
    fn deallocate_revokes_access() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("b", wasm_bundle("b", guest::consumer())).unwrap();
        let region = shim.write_memory_host("b", &[1, 2, 3, 4]).unwrap();
        shim.deallocate("b", region).unwrap();
        assert!(matches!(
            shim.peek_memory("b", region),
            Err(RoadrunnerError::AccessViolation(_))
        ));
    }

    #[test]
    fn unknown_module_errors() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        assert!(matches!(
            shim.invoke("ghost", "f", &[]),
            Err(RoadrunnerError::UnknownModule(_))
        ));
        assert!(matches!(
            shim.read_memory_host("ghost", MemoryRegion::new(0, 1)),
            Err(RoadrunnerError::UnknownModule(_))
        ));
    }

    #[test]
    fn missing_allocator_is_reported() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        shim.load_module("plain", wasm_bundle("plain", guest::hello_world()))
            .unwrap();
        let err = shim.write_memory_host("plain", b"x").unwrap_err();
        assert!(matches!(err, RoadrunnerError::MissingGuestApi(_)));
    }

    #[test]
    fn container_bundle_rejected() {
        let bed = Testbed::paper();
        let mut shim = shim_on(&bed);
        let bundle = Arc::new(
            FunctionBundle::container("c", 1024)
                .with_workflow("wf")
                .with_tenant("acme"),
        );
        assert!(matches!(
            shim.load_module("c", bundle),
            Err(RoadrunnerError::Config(_))
        ));
    }

    #[test]
    fn load_costs_are_charged_when_enabled() {
        let bed = Testbed::paper();
        let mut cheap = Shim::new("cheap", bed.node(0), ShimConfig::default().with_load_costs(false));
        let mut paid = Shim::new("paid", bed.node(0), ShimConfig::default());
        let bundle = wasm_bundle("a", guest::producer());
        cheap.load_module("a", Arc::clone(&bundle)).unwrap();
        let cheap_ns = cheap.sandbox().account().user_ns();
        paid.load_module("a", bundle).unwrap();
        let paid_ns = paid.sandbox().account().user_ns();
        assert!(paid_ns > cheap_ns);
        assert!(paid_ns >= bed.cost().wasm_init_ns);
    }
}
