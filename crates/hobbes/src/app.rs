//! Composite applications spanning multiple enclaves.
//!
//! Hobbes' signature capability: one application decomposed into components
//! running on different OS/Rs, glued together by XEMEM segments (Figure 1a
//! of the paper). The model creates one Kitten task per component, exports
//! a data-exchange segment from the first component's enclave, and attaches
//! every other component to it.

use crate::master::MasterControl;
use crate::{HobbesError, HobbesResult};
use covirt_simhw::addr::{PhysRange, PAGE_SIZE_2M};
use covirt_simhw::topology::CoreId;
use kitten::task::TaskId;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One component of a composite application.
#[derive(Clone, Debug)]
pub struct Component {
    /// Component name (e.g. "simulation", "analytics").
    pub name: String,
    /// The enclave it runs in.
    pub enclave: u64,
    /// The Kitten task backing it.
    pub task: TaskId,
    /// Whether the component is still healthy.
    pub healthy: bool,
}

/// A composite application.
#[derive(Clone, Debug)]
pub struct App {
    /// Application id.
    pub id: u64,
    /// Application name.
    pub name: String,
    /// Components in composition order.
    pub components: Vec<Component>,
    /// The shared data-exchange segment name.
    pub exchange_segment: String,
    /// The exchange segment's range.
    pub exchange_range: PhysRange,
}

/// Specification of one component.
#[derive(Clone, Debug)]
pub struct ComponentSpec {
    /// Component name.
    pub name: String,
    /// Enclave to place it in.
    pub enclave: u64,
    /// Core (within the enclave) to pin its task to.
    pub core: CoreId,
}

/// The application composer.
pub struct Composer {
    master: Arc<MasterControl>,
    apps: RwLock<HashMap<u64, App>>,
    next_id: AtomicU64,
}

impl Composer {
    /// Build a composer over the master control.
    pub fn new(master: Arc<MasterControl>) -> Self {
        Composer {
            master,
            apps: RwLock::new(HashMap::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Compose an application from `specs` (first component's enclave owns
    /// the exchange segment of `exchange_bytes`, carved from the top of its
    /// assignment).
    pub fn compose(
        &self,
        name: &str,
        specs: &[ComponentSpec],
        exchange_bytes: u64,
    ) -> HobbesResult<App> {
        if specs.is_empty() {
            return Err(HobbesError::Invalid(
                "application needs at least one component",
            ));
        }
        let owner = specs[0].enclave;
        let owner_enclave = self.master.pisces().enclave(pisces::EnclaveId(owner))?;
        let first_region = owner_enclave
            .resources()
            .mem
            .first()
            .copied()
            .ok_or(HobbesError::Invalid("owner enclave has no memory"))?;
        let seg_len = exchange_bytes.div_ceil(PAGE_SIZE_2M) * PAGE_SIZE_2M;
        if seg_len >= first_region.len {
            return Err(HobbesError::Invalid(
                "exchange segment larger than owner region",
            ));
        }
        let exchange_range =
            PhysRange::new(first_region.start.add(first_region.len - seg_len), seg_len);

        let app_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let seg_name = format!("app{app_id}.{name}.exchange");
        self.master
            .export_segment(owner, &seg_name, exchange_range)?;

        let mut components = Vec::with_capacity(specs.len());
        for spec in specs {
            let kernel = self.master.kernel(spec.enclave)?;
            let task = kernel.spawn_task(&spec.name, spec.core)?;
            if spec.enclave != owner {
                self.master.attach_segment(spec.enclave, &seg_name)?;
            }
            components.push(Component {
                name: spec.name.clone(),
                enclave: spec.enclave,
                task,
                healthy: true,
            });
        }

        let app = App {
            id: app_id,
            name: name.to_owned(),
            components,
            exchange_segment: seg_name,
            exchange_range,
        };
        self.apps.write().insert(app_id, app.clone());
        Ok(app)
    }

    /// Snapshot of an application.
    pub fn app(&self, id: u64) -> HobbesResult<App> {
        self.apps
            .read()
            .get(&id)
            .cloned()
            .ok_or(HobbesError::NoSuchApp(id))
    }

    /// Mark components in a failed enclave unhealthy; returns how many
    /// components were affected across all apps.
    pub fn mark_enclave_failed(&self, enclave: u64) -> usize {
        let mut affected = 0;
        for app in self.apps.write().values_mut() {
            for c in app.components.iter_mut() {
                if c.enclave == enclave && c.healthy {
                    c.healthy = false;
                    affected += 1;
                }
            }
        }
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use covirt_simhw::node::{NodeConfig, SimNode};
    use covirt_simhw::topology::ZoneId;
    use pisces::resources::ResourceRequest;

    fn setup() -> (Arc<MasterControl>, Composer, u64, u64) {
        let m = MasterControl::new(SimNode::new(NodeConfig::small()));
        let (e1, _) = m
            .bring_up_enclave(
                "sim",
                &ResourceRequest::new(vec![CoreId(1)], vec![(ZoneId(0), 48 * 1024 * 1024)]),
            )
            .unwrap();
        let (e2, _) = m
            .bring_up_enclave(
                "ana",
                &ResourceRequest::new(vec![CoreId(2)], vec![(ZoneId(0), 48 * 1024 * 1024)]),
            )
            .unwrap();
        let c = Composer::new(Arc::clone(&m));
        (m, c, e1.id.0, e2.id.0)
    }

    #[test]
    fn compose_two_component_app() {
        let (m, c, e1, e2) = setup();
        let app = c
            .compose(
                "insitu",
                &[
                    ComponentSpec {
                        name: "simulation".into(),
                        enclave: e1,
                        core: CoreId(1),
                    },
                    ComponentSpec {
                        name: "analytics".into(),
                        enclave: e2,
                        core: CoreId(2),
                    },
                ],
                4 * 1024 * 1024,
            )
            .unwrap();
        assert_eq!(app.components.len(), 2);
        // Both kernels can reach the exchange segment.
        assert!(m
            .kernel(e1)
            .unwrap()
            .translate(app.exchange_range.start.raw())
            .is_ok());
        assert!(m
            .kernel(e2)
            .unwrap()
            .translate(app.exchange_range.start.raw())
            .is_ok());
        assert_eq!(c.app(app.id).unwrap().name, "insitu");
    }

    #[test]
    fn empty_spec_rejected() {
        let (_m, c, _e1, _e2) = setup();
        assert!(matches!(
            c.compose("x", &[], 1024),
            Err(HobbesError::Invalid(_))
        ));
    }

    #[test]
    fn failure_marks_components() {
        let (m, c, e1, e2) = setup();
        let app = c
            .compose(
                "insitu",
                &[
                    ComponentSpec {
                        name: "simulation".into(),
                        enclave: e1,
                        core: CoreId(1),
                    },
                    ComponentSpec {
                        name: "analytics".into(),
                        enclave: e2,
                        core: CoreId(2),
                    },
                ],
                2 * 1024 * 1024,
            )
            .unwrap();
        m.handle_enclave_failure(e1, "ept violation").unwrap();
        assert_eq!(c.mark_enclave_failed(e1), 1);
        let app = c.app(app.id).unwrap();
        assert!(!app.components[0].healthy);
        assert!(app.components[1].healthy);
    }

    #[test]
    fn oversized_exchange_rejected() {
        let (_m, c, e1, _e2) = setup();
        let r = c.compose(
            "big",
            &[ComponentSpec {
                name: "solo".into(),
                enclave: e1,
                core: CoreId(1),
            }],
            1 << 40,
        );
        assert!(matches!(r, Err(HobbesError::Invalid(_))));
    }
}
