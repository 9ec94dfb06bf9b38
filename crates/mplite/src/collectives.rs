//! Collective operations over a [`Comm`]: barrier, broadcast, reduce,
//! allreduce, alltoall.
//!
//! Algorithms are the textbook ones (binomial trees, dissemination
//! barrier); tags are drawn from a reserved space keyed by a per-`Comm`
//! collective sequence number, so user point-to-point traffic and earlier
//! collectives can never match a collective's messages.

use crate::comm::{Comm, MpResult};

/// Base of the reserved collective tag space (user tags must stay below).
pub const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

impl Comm {
    fn coll_tag(&mut self, round: u64) -> u64 {
        COLLECTIVE_TAG_BASE + self.coll_seq * 64 + round
    }

    fn finish_collective(&mut self) {
        self.coll_seq += 1;
    }

    /// Dissemination barrier: ⌈log₂ P⌉ rounds, no root.
    pub fn barrier(&mut self) -> MpResult<()> {
        let size = self.size();
        let rank = self.rank();
        let mut round = 0;
        let mut dist = 1;
        while dist < size {
            let tag = self.coll_tag(round);
            let to = (rank + dist) % size;
            let from = (rank + size - dist) % size;
            self.send(to, tag, &[])?;
            self.recv(from, tag)?;
            dist <<= 1;
            round += 1;
        }
        self.finish_collective();
        Ok(())
    }

    /// Binomial-tree broadcast from `root`.
    pub fn bcast(&mut self, root: usize, data: Vec<u8>) -> MpResult<Vec<u8>> {
        let size = self.size();
        let rank = self.rank();
        // Re-rank so the root is virtual rank 0.
        let vrank = (rank + size - root) % size;
        let tag = self.coll_tag(0);
        let mut data = data;
        if vrank != 0 {
            // Receive from the parent (the vrank with the lowest set bit
            // cleared).
            let parent = ((vrank & (vrank - 1)) + root) % size;
            data = self.recv(parent, tag)?;
        }
        // Forward to children: vrank | b for every power of two b below
        // vrank's lowest set bit (all powers for the root).
        let limit = if vrank == 0 {
            size
        } else {
            vrank & vrank.wrapping_neg()
        };
        let mut b = 1;
        while b < limit {
            let vchild = vrank | b;
            if vchild < size {
                self.send((vchild + root) % size, tag, &data)?;
            }
            b <<= 1;
        }
        self.finish_collective();
        Ok(data)
    }

    /// Binomial-tree sum of one `f64` to `root`. Non-roots return `None`.
    pub fn reduce_f64(&mut self, root: usize, value: f64) -> MpResult<Option<f64>> {
        let size = self.size();
        let rank = self.rank();
        let vrank = (rank + size - root) % size;
        let tag = self.coll_tag(0);
        let mut acc = value;
        // Gather up the binomial tree: at round k, vranks with bit k set
        // send to vrank - 2^k; receivers must have bits < k clear.
        let mut bit = 1;
        while bit < size {
            if vrank & bit != 0 {
                let parent = ((vrank & !bit) + root) % size;
                self.send_val(parent, tag, &acc)?;
                break;
            } else if (vrank | bit) < size {
                let child = ((vrank | bit) + root) % size;
                let v: f64 = self.recv_val(child, tag)?;
                acc += v;
            }
            bit <<= 1;
        }
        self.finish_collective();
        Ok(if rank == root { Some(acc) } else { None })
    }

    /// Sum to rank 0 then broadcast: every rank gets the result.
    pub fn allreduce_f64(&mut self, value: f64) -> MpResult<f64> {
        let reduced = self.reduce_f64(0, value)?;
        let bytes = self.bcast(0, reduced.map(|v| wire::to_bytes(&v)).unwrap_or_default())?;
        wire::from_bytes(&bytes).map_err(|e| crate::MpError::Decode(e.to_string()))
    }

    /// Personalized all-to-all: rank `i` sends `data[j]` to rank `j` and
    /// returns what every rank sent to `i` — the transpose primitive of the
    /// distributed FFT.
    pub fn alltoall(&mut self, mut data: Vec<Vec<u8>>) -> MpResult<Vec<Vec<u8>>> {
        let size = self.size();
        let rank = self.rank();
        assert_eq!(data.len(), size, "alltoall needs one payload per rank");
        let tag = self.coll_tag(0);
        for (r, payload) in data.iter().enumerate() {
            if r != rank {
                self.send(r, tag, payload)?;
            }
        }
        let mut out = vec![Vec::new(); size];
        out[rank] = std::mem::take(&mut data[rank]);
        for (r, slot) in out.iter_mut().enumerate() {
            if r != rank {
                *slot = self.recv(r, tag)?;
            }
        }
        self.finish_collective();
        Ok(out)
    }

    /// Typed alltoall over double payloads (the FFT's block exchange). The
    /// rank's own block is never sent, so it is not encoded either: it is
    /// moved through as it is.
    pub fn alltoall_f64(&mut self, mut data: Vec<Vec<f64>>) -> MpResult<Vec<Vec<f64>>> {
        let rank = self.rank();
        let mut own = data.get_mut(rank).map(std::mem::take);
        let encoded = data
            .into_iter()
            .map(|v| wire::to_bytes(&wire::collections::F64s(v)))
            .collect();
        let exchanged = self.alltoall(encoded)?;
        exchanged
            .into_iter()
            .enumerate()
            .map(|(r, b)| {
                if let Some(own) = own.take_if(|_| r == rank) {
                    return Ok(own);
                }
                wire::from_bytes::<wire::collections::F64s>(&b)
                    .map(|f| f.0)
                    .map_err(|e| crate::MpError::Decode(e.to_string()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::MpiWorld;
    use simnet::ClusterConfig;

    fn world(n: usize) -> MpiWorld {
        MpiWorld::new(ClusterConfig::zero_cost(n))
    }

    #[test]
    fn barrier_completes_for_many_sizes() {
        for n in [1, 2, 3, 4, 5, 8] {
            let (r, _) = world(n).run(|c| {
                for _ in 0..3 {
                    c.barrier().unwrap();
                }
                c.rank()
            });
            assert_eq!(r.len(), n);
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..4 {
            let (results, _) = world(4).run(move |c| {
                let data = if c.rank() == root {
                    format!("from-{root}").into_bytes()
                } else {
                    Vec::new()
                };
                c.bcast(root, data).unwrap()
            });
            for r in results {
                assert_eq!(r, format!("from-{root}").into_bytes());
            }
        }
    }

    #[test]
    fn reduce_sums_at_root() {
        for n in [1, 2, 3, 5, 8] {
            let (results, _) = world(n).run(|c| c.reduce_f64(0, (c.rank() + 1) as f64).unwrap());
            let expect = (n * (n + 1)) as f64 / 2.0;
            assert_eq!(results[0], Some(expect));
            for r in &results[1..] {
                assert_eq!(*r, None);
            }
        }
    }

    #[test]
    fn allreduce_min_max_sum() {
        let (sums, _) = world(5).run(|c| c.allreduce_f64(c.rank() as f64).unwrap());
        assert_eq!(sums, vec![10.0; 5]);
    }

    #[test]
    fn alltoall_transposes() {
        let (results, _) = world(3).run(|c| {
            let data: Vec<Vec<u8>> = (0..3)
                .map(|dst| vec![(c.rank() * 10 + dst) as u8])
                .collect();
            c.alltoall(data).unwrap()
        });
        // Rank r receives [0r, 1r, 2r].
        for (r, got) in results.iter().enumerate() {
            let expect: Vec<Vec<u8>> = (0..3).map(|src| vec![(src * 10 + r) as u8]).collect();
            assert_eq!(got, &expect);
        }
    }

    #[test]
    fn alltoall_f64_roundtrips() {
        let (results, _) = world(2).run(|c| {
            let data: Vec<Vec<f64>> = (0..2)
                .map(|dst| vec![c.rank() as f64 + dst as f64 * 0.5])
                .collect();
            c.alltoall_f64(data).unwrap()
        });
        assert_eq!(results[0], vec![vec![0.0], vec![1.0]]);
        assert_eq!(results[1], vec![vec![0.5], vec![1.5]]);
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let (results, _) = world(4).run(|c| {
            let mut acc = Vec::new();
            for round in 0..5 {
                let s = c.allreduce_f64((c.rank() + round) as f64).unwrap();
                c.barrier().unwrap();
                acc.push(s);
            }
            acc
        });
        for r in results {
            assert_eq!(r, vec![6.0, 10.0, 14.0, 18.0, 22.0]);
        }
    }
}
