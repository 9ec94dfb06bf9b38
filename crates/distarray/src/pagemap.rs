//! Page maps — "the PageMap describes the array data layout and is crucial
//! in determining the I/O patterns of the computation" (§5).
//!
//! A page map assigns every page of the 3-D page grid a *physical* address:
//! which device, and which page slot within that device. The paper's claim
//! (reproduced as experiment E5) is that this choice alone decides how many
//! devices a given access pattern engages — i.e. the degree of I/O
//! parallelism.
//!
//! Maps here are **materialized tables**: built once from the grid shape
//! and device count, wire-encodable (so parallel Array clients on other
//! machines can carry them), and guaranteed bijective by construction.

use wire::{wire_struct, Wire, WireError, WireResult};

/// Physical location of one page — the paper's `PageAddress` struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageAddress {
    /// Index of the device in the [`BlockStorage`](crate::BlockStorage).
    pub device_id: u64,
    /// Page slot within that device.
    pub index: u64,
}

wire_struct!(PageAddress { device_id, index });

/// Layout strategy names, for display and bench tables. The discriminant
/// is the map's tag on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Consecutive pages go to consecutive devices.
    RoundRobin = 0,
    /// Each device holds one contiguous run of pages.
    Blocked = 1,
    /// Pages scatter pseudo-randomly (hash of the page coordinate).
    Hashed = 2,
    /// Pages follow a Z-order (Morton) curve, round-robined over devices —
    /// preserves 3-D locality while still spreading load.
    ZCurve = 3,
}

impl MapKind {
    /// Human-readable name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            MapKind::RoundRobin => "round-robin",
            MapKind::Blocked => "blocked",
            MapKind::Hashed => "hashed",
            MapKind::ZCurve => "z-curve",
        }
    }
}

/// A concrete page map: grid shape plus the page → device/slot table.
#[derive(Debug, Clone, PartialEq)]
pub struct PageMap {
    grid: [u64; 3],
    devices: u64,
    table: Vec<PageAddress>,
    kind: MapKind,
}

/// A map decodes only if its table covers its grid, addresses only its
/// devices and names a known layout.
impl Wire for PageMap {
    fn encode(&self, w: &mut wire::Writer) {
        self.grid.encode(w);
        self.devices.encode(w);
        self.table.encode(w);
        (self.kind as u8).encode(w);
    }
    fn decode(r: &mut wire::Reader<'_>) -> WireResult<Self> {
        let (grid, devices, table): ([u64; 3], u64, Vec<PageAddress>) =
            (Wire::decode(r)?, Wire::decode(r)?, Wire::decode(r)?);
        let kind = match u8::decode(r)? {
            0 => MapKind::RoundRobin,
            1 => MapKind::Blocked,
            2 => MapKind::Hashed,
            3 => MapKind::ZCurve,
            tag => {
                return Err(WireError::UnknownVariant {
                    ty: "MapKind",
                    tag: tag.into(),
                })
            }
        };
        if grid.into_iter().try_fold(1, u64::checked_mul) != Some(table.len() as u64) {
            return Err(WireError::Invalid("page map table does not cover its grid"));
        }
        if table.iter().any(|a| a.device_id >= devices) {
            return Err(WireError::Invalid("page map addresses a device it lacks"));
        }
        Ok(PageMap {
            grid,
            devices,
            table,
            kind,
        })
    }
}

/// Interleave the low 21 bits of three coordinates (Morton order).
fn morton3(x: u64, y: u64, z: u64) -> u64 {
    fn spread(mut v: u64) -> u64 {
        v &= (1 << 21) - 1;
        v = (v | (v << 32)) & 0x1f00_0000_ffff;
        v = (v | (v << 16)) & 0x1f00_00ff_00ff;
        v = (v | (v << 8)) & 0x100f_00f0_0f00_f00f;
        v = (v | (v << 4)) & 0x10c3_0c30_c30c_30c3;
        v = (v | (v << 2)) & 0x1249_2492_4924_9249;
        v
    }
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

impl PageMap {
    fn build(
        grid: [u64; 3],
        devices: u64,
        kind: MapKind,
        order: impl Fn(u64, [u64; 3]) -> u64,
        assign: impl Fn(u64, [u64; 3]) -> u64,
    ) -> Self {
        assert!(devices > 0, "a page map needs at least one device");
        let total = grid[0] * grid[1] * grid[2];
        let mut table = vec![
            PageAddress {
                device_id: 0,
                index: 0
            };
            total as usize
        ];
        // Sort pages by the ordering key, then deal them to devices; the
        // per-device slot counter guarantees bijectivity for any strategy.
        let mut keyed: Vec<(u64, u64)> = (0..total)
            .map(|linear| {
                let coord = Self::coord_of(grid, linear);
                (order(linear, coord), linear)
            })
            .collect();
        keyed.sort_unstable();
        let mut next_slot = vec![0u64; devices as usize];
        for (_, linear) in keyed {
            let coord = Self::coord_of(grid, linear);
            let device_id = assign(linear, coord) % devices;
            let index = next_slot[device_id as usize];
            next_slot[device_id as usize] += 1;
            table[linear as usize] = PageAddress { device_id, index };
        }
        PageMap {
            grid,
            devices,
            table,
            kind,
        }
    }

    /// Consecutive pages (row-major order) on consecutive devices.
    pub fn round_robin(grid: [u64; 3], devices: u64) -> Self {
        Self::build(grid, devices, MapKind::RoundRobin, |l, _| l, move |l, _| l)
    }

    /// Contiguous runs: device 0 gets the first `total/D` pages, etc.
    pub fn blocked(grid: [u64; 3], devices: u64) -> Self {
        let total = grid[0] * grid[1] * grid[2];
        let per = total.div_ceil(devices).max(1);
        Self::build(
            grid,
            devices,
            MapKind::Blocked,
            |l, _| l,
            move |l, _| l / per,
        )
    }

    /// Pseudo-random placement, deterministic in `seed`.
    pub fn hashed(grid: [u64; 3], devices: u64, seed: u64) -> Self {
        Self::build(
            grid,
            devices,
            MapKind::Hashed,
            |l, _| l,
            move |_, c| simnet::faults::mix(seed ^ morton3(c[0], c[1], c[2])),
        )
    }

    /// Z-order traversal dealt round-robin: neighbours in 3-D stay close in
    /// the deal order, so block-local access still spreads across devices.
    pub fn zcurve(grid: [u64; 3], devices: u64) -> Self {
        Self::build(
            grid,
            devices,
            MapKind::ZCurve,
            |_, c| morton3(c[0], c[1], c[2]),
            move |_, c| morton3(c[0], c[1], c[2]),
        )
    }

    /// The page grid this map covers.
    pub fn grid(&self) -> [u64; 3] {
        self.grid
    }

    /// Number of devices the map spreads over.
    pub fn devices(&self) -> u64 {
        self.devices
    }

    /// Which layout built this map.
    pub fn kind(&self) -> MapKind {
        self.kind
    }

    /// Row-major linear index of a page coordinate.
    pub fn linear_of(grid: [u64; 3], c: [u64; 3]) -> u64 {
        (c[0] * grid[1] + c[1]) * grid[2] + c[2]
    }

    /// Page coordinate of a row-major linear index.
    pub fn coord_of(grid: [u64; 3], linear: u64) -> [u64; 3] {
        let c3 = linear % grid[2];
        let rest = linear / grid[2];
        [rest / grid[1], rest % grid[1], c3]
    }

    /// The paper's `PhysicalPageAddress(i1, i2, i3)`.
    ///
    /// # Panics
    /// If the coordinate is outside the grid.
    pub fn physical(&self, c: [u64; 3]) -> PageAddress {
        assert!(
            (0..3).all(|d| c[d] < self.grid[d]),
            "page coordinate {c:?} outside grid {:?}",
            self.grid
        );
        self.table[Self::linear_of(self.grid, c) as usize]
    }

    /// Pages each device must be able to hold under this map.
    pub fn pages_per_device(&self) -> u64 {
        self.table.iter().map(|a| a.index + 1).max().unwrap_or(0)
    }

    /// How many distinct devices the pages of `coords` touch — the paper's
    /// "degree of parallelism" of an access pattern.
    pub fn devices_touched(&self, coords: impl IntoIterator<Item = [u64; 3]>) -> usize {
        let mut seen = vec![false; self.devices as usize];
        let mut count = 0;
        for c in coords {
            let d = self.physical(c).device_id as usize;
            if !seen[d] {
                seen[d] = true;
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_bijective(map: &PageMap) {
        let grid = map.grid();
        let mut seen = HashSet::new();
        for l in 0..grid[0] * grid[1] * grid[2] {
            let addr = map.physical(PageMap::coord_of(grid, l));
            assert!(addr.device_id < map.devices());
            assert!(
                seen.insert((addr.device_id, addr.index)),
                "duplicate physical address {addr:?}"
            );
        }
    }

    #[test]
    fn all_maps_are_bijective() {
        let grid = [3, 4, 5];
        for map in [
            PageMap::round_robin(grid, 4),
            PageMap::blocked(grid, 4),
            PageMap::hashed(grid, 4, 42),
            PageMap::zcurve(grid, 4),
        ] {
            assert_bijective(&map);
        }
    }

    #[test]
    fn linear_coord_roundtrip() {
        let grid = [3, 4, 5];
        for l in 0..60 {
            assert_eq!(PageMap::linear_of(grid, PageMap::coord_of(grid, l)), l);
        }
    }

    #[test]
    fn round_robin_spreads_consecutive_pages() {
        let map = PageMap::round_robin([1, 1, 8], 4);
        let devices: Vec<u64> = (0..8).map(|l| map.physical([0, 0, l]).device_id).collect();
        assert_eq!(devices, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(map.pages_per_device(), 2);
    }

    #[test]
    fn blocked_clusters_consecutive_pages() {
        let map = PageMap::blocked([1, 1, 8], 4);
        let devices: Vec<u64> = (0..8).map(|l| map.physical([0, 0, l]).device_id).collect();
        assert_eq!(devices, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn blocked_handles_non_divisible_totals() {
        let map = PageMap::blocked([1, 1, 7], 3);
        assert_bijective(&map);
        // ceil(7/3) = 3 pages per device: 0,0,0,1,1,1,2
        assert_eq!(map.physical([0, 0, 6]).device_id, 2);
    }

    #[test]
    fn hashed_is_deterministic_and_seed_sensitive() {
        let a = PageMap::hashed([2, 2, 2], 3, 1);
        let b = PageMap::hashed([2, 2, 2], 3, 1);
        let c = PageMap::hashed([2, 2, 2], 3, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_bijective(&c);
    }

    #[test]
    fn devices_touched_distinguishes_layouts() {
        // A contiguous run of 4 pages: round-robin touches 4 devices,
        // blocked touches 1.
        let grid = [1u64, 1, 16];
        let rr = PageMap::round_robin(grid, 4);
        let bl = PageMap::blocked(grid, 4);
        let run: Vec<[u64; 3]> = (0..4).map(|l| [0, 0, l]).collect();
        assert_eq!(rr.devices_touched(run.clone()), 4);
        assert_eq!(bl.devices_touched(run), 1);
    }

    #[test]
    fn zcurve_preserves_locality_while_spreading() {
        let map = PageMap::zcurve([4, 4, 4], 8);
        assert_bijective(&map);
        // A 2x2x2 corner block under z-order is 8 consecutive deals → all 8
        // devices touched.
        let corner: Vec<[u64; 3]> = (0..2)
            .flat_map(|i| (0..2).flat_map(move |j| (0..2).map(move |k| [i, j, k])))
            .collect();
        assert_eq!(map.devices_touched(corner), 8);
    }

    #[test]
    fn single_device_map_works() {
        let map = PageMap::round_robin([2, 2, 2], 1);
        assert_bijective(&map);
        assert_eq!(map.pages_per_device(), 8);
        assert_eq!(
            map.devices_touched((0..8).map(|l| PageMap::coord_of([2, 2, 2], l))),
            1
        );
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_grid_coordinate_panics() {
        let map = PageMap::round_robin([2, 2, 2], 1);
        let _ = map.physical([2, 0, 0]);
    }

    #[test]
    fn pagemap_travels_the_wire() {
        let map = PageMap::hashed([2, 3, 2], 4, 9);
        let back: PageMap = wire::from_bytes(&wire::to_bytes(&map)).unwrap();
        assert_eq!(back, map);
        assert_eq!(back.kind(), MapKind::Hashed);
    }

    #[test]
    fn kind_names() {
        assert_eq!(
            PageMap::round_robin([1, 1, 1], 1).kind().name(),
            "round-robin"
        );
        assert_eq!(PageMap::blocked([1, 1, 1], 1).kind().name(), "blocked");
        assert_eq!(PageMap::hashed([1, 1, 1], 1, 0).kind().name(), "hashed");
        assert_eq!(PageMap::zcurve([1, 1, 1], 1).kind().name(), "z-curve");
    }
}
