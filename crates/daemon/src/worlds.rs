//! Sharing built worlds (and their memoized route tables) across jobs.
//!
//! Building a [`World`] is the expensive part of a study — the route
//! tables alone compute destinations × ASes of next-hop state. Two
//! concurrent jobs with the same resolved scenario must not pay that
//! twice, so the daemon keys built worlds by [`Scenario::config_hash`]
//! (which strips `checkpoint_dir` — per-job checkpoint placement never
//! forks a world) and hands out clones of one `Arc<World>`.

use ipv6web_core::{Scenario, World, WorldError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Daemon-lifetime cache of built worlds, keyed by scenario identity.
#[derive(Default)]
pub struct WorldCache {
    worlds: Mutex<HashMap<u64, Arc<World>>>,
}

impl WorldCache {
    /// A fresh, empty cache.
    pub fn new() -> WorldCache {
        WorldCache::default()
    }

    /// Returns the shared world for `scenario`, building it on first use.
    ///
    /// The build happens under the cache lock: a second same-config job
    /// arriving mid-build blocks and then reuses the finished world
    /// instead of racing a duplicate build. Counters `daemon.world.built`
    /// and `daemon.world.reused` record which path each request took. A
    /// scenario that cannot be built returns its [`WorldError`] and caches
    /// nothing, so one bad job never takes the cache down with it.
    pub fn get(&self, scenario: &Scenario) -> Result<Arc<World>, WorldError> {
        let key = scenario.config_hash();
        let mut worlds = self.worlds.lock().expect("world cache lock");
        if let Some(world) = worlds.get(&key) {
            ipv6web_obs::inc("daemon.world.reused");
            return Ok(world.clone());
        }
        ipv6web_obs::inc("daemon.world.built");
        let world = Arc::new(World::try_build(&scenario.identity_scenario())?);
        worlds.insert(key, world.clone());
        Ok(world)
    }

    /// Number of distinct worlds currently cached.
    pub fn len(&self) -> usize {
        self.worlds.lock().expect("world cache lock").len()
    }

    /// `true` when nothing has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_config_shares_one_world() {
        let cache = WorldCache::new();
        let mut a = Scenario::quick(5);
        // a different checkpoint_dir must not fork the world
        let mut b = a.clone();
        b.checkpoint_dir = Some("/tmp/elsewhere".into());
        let wa = cache.get(&a).unwrap();
        let wb = cache.get(&b).unwrap();
        assert!(Arc::ptr_eq(&wa, &wb));
        assert_eq!(cache.len(), 1);

        a.seed += 1;
        let wc = cache.get(&a).unwrap();
        assert!(!Arc::ptr_eq(&wa, &wc));
        assert_eq!(cache.len(), 2);
    }
}
