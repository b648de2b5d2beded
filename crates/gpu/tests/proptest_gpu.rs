//! Property tests for the software GPU's memory ledger.

use hetero_gpu::{BufferId, DeviceMemory};
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
}
