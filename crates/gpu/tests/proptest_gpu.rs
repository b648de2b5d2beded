//! Property tests for the software GPU: the memory ledger and transfer
//! accounting.

use hetero_gpu::{BufferId, DeviceMemory, GpuDevice};
use hetero_sim::GpuModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ledger accounting is exact under arbitrary alloc/free sequences.
    #[test]
    fn allocator_accounting_exact(ops in prop::collection::vec((1u64..2000, any::<bool>()), 1..100)) {
        let mem = DeviceMemory::new(1 << 22);
        let mut live: Vec<(BufferId, u64)> = Vec::new();
        let mut expected = 0u64;
        for (bytes, free_one) in ops {
            if free_one && !live.is_empty() {
                let (id, b) = live.swap_remove(0);
                mem.free(id).unwrap();
                expected -= b;
            } else if let Ok(id) = mem.alloc(bytes) {
                live.push((id, bytes));
                expected += bytes;
            }
            prop_assert_eq!(mem.used_bytes(), expected);
            prop_assert_eq!(mem.live_buffers(), live.len());
        }
        for (id, _) in live {
            mem.free(id).unwrap();
        }
        prop_assert_eq!(mem.used_bytes(), 0);
    }

    /// Transfer stats add up exactly across arbitrary transfer sequences.
    #[test]
    fn transfer_stats_exact(sizes in prop::collection::vec(1usize..1000, 1..20)) {
        let device = GpuDevice::new(GpuModel::v100());
        let mut h2d = 0u64;
        let mut d2h = 0u64;
        for len in sizes {
            let data = vec![0.25f32; len];
            let buf = device.h2d(&data).unwrap();
            h2d += 4 * len as u64;
            device.account_d2h(4 * len as u64);
            d2h += 4 * len as u64;
            device.mem().free(buf).unwrap();
        }
        let stats = device.transfer_stats();
        prop_assert_eq!(stats.h2d_bytes, h2d);
        prop_assert_eq!(stats.d2h_bytes, d2h);
        prop_assert!(device.virtual_time() > 0.0);
    }
}
