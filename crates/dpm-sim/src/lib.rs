//! # dpm-sim
//!
//! A from-scratch simulator of the paper's evaluation platform: the PAMA
//! board (eight M32R/D PIMs behind two FPGAs on a unidirectional ring), a
//! rechargeable battery with a capacity window, periodic/solar charging
//! sources, RF-event arrival processes, a battery gauge, and the
//! slot-stepped feedback loop that lets any [`dpm_core::governor::Governor`]
//! drive it all.
//!
//! One engine steps every board: [`fleet::FleetState`]'s slot body,
//! built on the pure kernels in [`battery`], [`board`], [`processor`] and
//! [`events`]. The open-loop fleet feeds it from precomputed tables; a
//! governed [`sim::Simulation`] is a one-board engine fed by its governor,
//! charging source, event generator and disturbance queue.
//!
//! ```
//! use dpm_core::prelude::*;
//! use dpm_sim::prelude::*;
//!
//! fn main() -> Result<(), SimError> {
//!     let platform = Platform::pama();
//!     let charging = PowerSeries::new(platform.tau,
//!         vec![2.36; 6].into_iter().chain(vec![0.0; 6]).collect())?;
//!     let rates = PowerSeries::constant(platform.tau, 12, 0.2)?;
//!
//!     struct AlwaysOn;
//!     impl Governor for AlwaysOn {
//!         fn name(&self) -> &str { "always-on" }
//!         fn decide(&mut self, _o: &SlotObservation) -> Result<OperatingPoint, DpmError> {
//!             Ok(OperatingPoint::new(3, Hertz::from_mhz(40.0), volts(3.3)))
//!         }
//!     }
//!
//!     let sim = Simulation::new(
//!         platform,
//!         Box::new(TraceSource::new(charging)),
//!         Box::new(ScheduleGenerator::new(rates)),
//!         joules(8.0),
//!         SimConfig::default(),
//!     )?;
//!     let report = sim.run(&mut AlwaysOn)?;
//!     assert!(report.jobs_done > 0);
//!     Ok(())
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `!(x > 0.0)`-style checks are deliberate: unlike `x <= 0.0` they also
// reject NaN, which is exactly what the validation layer is for.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod battery;
pub mod board;
pub mod commands;
pub mod engine;
pub mod error;
pub mod events;
pub mod fleet;
pub mod meter;
pub mod network;
pub mod processor;
pub mod sim;
pub mod source;
pub mod stats;
pub mod topo;

/// One-stop imports.
pub mod prelude {
    pub use crate::battery::{BatteryConfig, PeukertModel};
    pub use crate::commands::{Command, CommandBus, InFlight};
    pub use crate::engine::{Clock, EventQueue};
    pub use crate::error::SimError;
    pub use crate::events::{BurstGenerator, EventGenerator, PoissonGenerator, ScheduleGenerator};
    pub use crate::fleet::{
        BoardSpec, FleetConfig, FleetReport, FleetState, FleetTrace, ShedGuard,
    };
    pub use crate::meter::ChargeSensor;
    pub use crate::network::{RingConfig, RingNetwork};
    pub use crate::processor::{Mode, TransitionLatency};
    pub use crate::sim::{ActiveRun, Disturbance, SimConfig, Simulation};
    pub use crate::source::{ChargingSource, NoisySource, SolarOrbitSource, TraceSource};
    pub use crate::stats::{BrokerStats, SimReport, SlotRecord, SurvivalReport};
    pub use crate::topo::{pama_topology, TopologyMode, TopologyRuntime};
    pub use dpm_telemetry::Recorder;
}
