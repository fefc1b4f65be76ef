//! The benchmark's inputs: schema, data and every transaction as SQL text,
//! made from the seed argument alone. The templates mirror Appendix D of
//! the paper (as `crates/workload` does) but nothing here calls that
//! crate: the program under test receives only the generated text.

use crate::rng::Rng;
use std::collections::BTreeSet;
use youtopia_storage::{shard_of_table, Value};

/// Transactions per wave: the driver submits this many, then runs the
/// scheduler until they have settled.
pub const WAVE: usize = 32;

const CITIES: [&str; 8] = ["ATL", "BOS", "CHI", "DEN", "EWR", "FAT", "GEG", "HOU"];
const HORIZON_DAYS: usize = 120;
const WINDOW_DAYS: usize = 2;
const BASE_DAY: i32 = 19_000;
const FRIENDS_PER_USER: usize = 5;
/// First-halves of entangled pairs held over to the next wave: 4 of the
/// 16 pairs a steady-state wave starts, i.e. 25 %.
const SPLIT_PAIRS: usize = 4;
const HOT_ROWS: usize = 8;

/// Data-set size. Everything fits in memory; the engine has no page
/// cache, so there is no "larger than cache" size to add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub users: usize,
    pub flights: usize,
    pub slots: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        users: 2000,
        flights: 2000,
        slots: 2000,
    };
    /// Small enough for the audited debug build the unit tests run in.
    #[cfg(test)]
    pub const SMOKE: Scale = Scale {
        users: 160,
        flights: 224,
        slots: 240,
    };
}

/// One benchmark workload: fixed name, shard count and transaction count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub shards: usize,
    /// Transactions per rep. Count-based, because cost depends on history
    /// length: two reps are comparable only at the same count.
    pub txns: usize,
    /// The driver checkpoints between waves once the log grew by 1 MiB.
    pub checkpoint: bool,
}

/// Calibrated so that one rep takes about 3 s on the 2-core box at the
/// commit that added the benchmark (see README.md, "Calibration").
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "booking",
        shards: 1,
        txns: 12_800,
        checkpoint: true,
    },
    Spec {
        name: "entangled",
        shards: 1,
        txns: 6_400,
        checkpoint: false,
    },
    Spec {
        name: "dashboard",
        shards: 1,
        txns: 12_000,
        checkpoint: false,
    },
    Spec {
        name: "crossshard",
        shards: 2,
        txns: 14_400,
        checkpoint: false,
    },
    Spec {
        name: "hotrows",
        shards: 1,
        txns: 10_240,
        checkpoint: false,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One arrival wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    pub sql: Vec<String>,
    /// Transactions expected to stay pooled when the wave has settled:
    /// first halves of entangled pairs whose partner arrives next wave.
    pub carry: usize,
}

/// An entangled pair and the destination both members book.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub a: usize,
    pub b: usize,
    pub dest: usize,
}

/// What the final database must look like, known at generation time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expect {
    /// Rows in `Reserve` once every transaction has committed.
    pub reserve_rows: usize,
    /// Entangled pairs: both members must hold a row with the same flight.
    pub pairs: Vec<Pair>,
    /// The workload only self-assigns: the database must equal its seed.
    pub unchanged: bool,
}

/// Everything one rep feeds the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub setup: String,
    pub waves: Vec<Wave>,
    pub expect: Expect,
    /// Per user: hometown (index into the city list).
    pub hometown: Vec<usize>,
    pub scale: Scale,
}

impl Inputs {
    pub fn txns(&self) -> usize {
        self.waves.iter().map(|w| w.sql.len()).sum()
    }

    /// The flight a booking from `home` to `dest` may pick.
    pub fn flight_serves(&self, fid: usize, home: usize, dest: usize) -> bool {
        fid < self.scale.flights && flight_route(fid) == (home, dest)
    }

    /// The flight `Reserve` is seeded with for `uid`.
    pub fn seed_flight(&self, uid: usize) -> usize {
        uid % self.scale.flights
    }
}

/// Flight `fid` goes from `.0` to `.1`; every ordered city pair is served.
fn flight_route(fid: usize) -> (usize, usize) {
    let n = CITIES.len();
    let source = fid % n;
    (source, (source + 1 + (fid / n) % (n - 1)) % n)
}

fn day_literal(offset: usize) -> String {
    format!("'{}'", Value::Date(BASE_DAY + offset as i32))
}

struct Dataset {
    scale: Scale,
    hometown: Vec<usize>,
    /// Same-hometown friends per user (the pairs entangled queries can
    /// answer), a subset of the `Friends` rows.
    town_friends: Vec<Vec<usize>>,
    friends: BTreeSet<(usize, usize)>,
}

impl Dataset {
    fn generate(scale: Scale, rng: &mut Rng) -> Dataset {
        let n = CITIES.len();
        // The first users cover every city twice, so no town is empty.
        let hometown: Vec<usize> = (0..scale.users)
            .map(|u| if u < 2 * n { u % n } else { rng.below(n) })
            .collect();
        let mut by_town: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, &h) in hometown.iter().enumerate() {
            by_town[h].push(u);
        }
        let mut friends = BTreeSet::new();
        for u in 0..scale.users {
            let town = &by_town[hometown[u]];
            for k in 0..FRIENDS_PER_USER {
                // Three friends from home, two from anywhere.
                let v = if k < 3 {
                    town[rng.below(town.len())]
                } else {
                    rng.below(scale.users)
                };
                if v != u {
                    friends.insert((u, v));
                    friends.insert((v, u));
                }
            }
        }
        let mut town_friends: Vec<Vec<usize>> = vec![Vec::new(); scale.users];
        for &(u, v) in &friends {
            if hometown[u] == hometown[v] {
                town_friends[u].push(v);
            }
        }
        Dataset {
            scale,
            hometown,
            town_friends,
            friends,
        }
    }

    fn setup_script(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(1 << 20);
        s.push_str(
            "CREATE TABLE User (uid INT, hometown TEXT);\
             CREATE TABLE Friends (uid1 INT, uid2 INT);\
             CREATE TABLE Flight (source TEXT, destination TEXT, fid INT);\
             CREATE TABLE Reserve (uid INT, fid INT);\
             CREATE TABLE Sched (fid INT, day DATE, dest TEXT, seats INT);",
        );
        for (uid, &h) in self.hometown.iter().enumerate() {
            let _ = write!(s, "INSERT INTO User VALUES ({uid}, '{}');", CITIES[h]);
        }
        for &(u, v) in &self.friends {
            let _ = write!(s, "INSERT INTO Friends VALUES ({u}, {v});");
        }
        for fid in 0..self.scale.flights {
            let (src, dst) = flight_route(fid);
            let _ = write!(
                s,
                "INSERT INTO Flight VALUES ('{}', '{}', {fid});",
                CITIES[src], CITIES[dst]
            );
        }
        for uid in 0..self.scale.users {
            let _ = write!(
                s,
                "INSERT INTO Reserve VALUES ({uid}, {});",
                uid % self.scale.flights
            );
        }
        // Destinations cycle fastest and days next, so every (dest, day)
        // pair holds about the same number of slots.
        for i in 0..self.scale.slots {
            let _ = write!(
                s,
                "INSERT INTO Sched VALUES ({}, {}, '{}', 1000000);",
                i % self.scale.flights,
                day_literal(i / CITIES.len() % HORIZON_DAYS),
                CITIES[i % CITIES.len()]
            );
        }
        s.push_str(
            "CREATE INDEX reserve_uid ON Reserve (uid);\
             CREATE INDEX user_uid ON User (uid) USING BTREE;\
             CREATE INDEX flight_fid ON Flight (fid);\
             CREATE INDEX flight_source ON Flight (source);\
             CREATE INDEX friends_uid1 ON Friends (uid1);\
             CREATE INDEX sched_day ON Sched (day) USING BTREE;\
             CREATE INDEX sched_dest_day ON Sched (dest, day) USING BTREE;",
        );
        s
    }

    /// A destination other than `uid`'s hometown (every one is served).
    fn destination(&self, uid: usize, rng: &mut Rng) -> usize {
        (self.hometown[uid] + 1 + rng.below(CITIES.len() - 1)) % CITIES.len()
    }

    /// Appendix D workload 1: individual booking.
    fn booking(&self, uid: usize, rng: &mut Rng) -> String {
        let dest = CITIES[self.destination(uid, rng)];
        format!(
            "BEGIN; SELECT @uid, @hometown FROM User WHERE uid={uid}; \
             SELECT @fid FROM Flight WHERE source=@hometown AND destination='{dest}'; \
             INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid); COMMIT;"
        )
    }

    /// Appendix D workload 2: booking plus a same-hometown friend lookup.
    fn social_booking(&self, uid: usize, rng: &mut Rng) -> String {
        let dest = CITIES[self.destination(uid, rng)];
        format!(
            "BEGIN; SELECT @uid, @hometown FROM User WHERE uid={uid}; \
             SELECT uid2 FROM Friends, User as u1, User as u2 \
             WHERE Friends.uid1=@uid AND Friends.uid2=u2.uid \
             AND u1.uid=@uid AND u1.hometown=u2.hometown LIMIT 1; \
             SELECT @fid FROM Flight WHERE source=@hometown AND destination='{dest}'; \
             INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid); COMMIT;"
        )
    }

    fn rebook(&self, uid: usize, rng: &mut Rng) -> String {
        let fid = rng.below(self.scale.flights);
        format!(
            "BEGIN; UPDATE Reserve SET fid={fid} WHERE uid={uid}; \
             SELECT fid FROM Reserve WHERE uid={uid}; COMMIT;"
        )
    }

    /// Appendix D workload 3: coordinate the booking with one friend.
    fn entangled(&self, me: usize, partner: usize, dest: usize) -> String {
        let dest = CITIES[dest];
        format!(
            "BEGIN; SELECT @hometown FROM User WHERE uid={me}; \
             SELECT {me} AS @uid, '{dest}' AS @destination INTO ANSWER Reserve \
             WHERE ({me}, {partner}) IN \
             (SELECT uid1, uid2 FROM Friends, User as u1, User as u2 \
              WHERE Friends.uid1={me} AND Friends.uid2={partner} \
              AND u1.uid={me} AND u2.uid={partner} AND u1.hometown=u2.hometown) \
             AND ({partner}, '{dest}') IN ANSWER Reserve CHOOSE 1; \
             SELECT @fid FROM Flight WHERE source=@hometown AND destination=@destination; \
             INSERT INTO Reserve (uid, fid) VALUES (@uid, @fid); COMMIT;"
        )
    }

    /// Eight SELECTs, read-only, so the engine runs it on the snapshot
    /// path: point probes, a date window, a composite window, and one
    /// scan of `Reserve` by a column that has no index.
    fn dashboard(&self, uid: usize, rng: &mut Rng) -> String {
        let lo = rng.below(HORIZON_DAYS - WINDOW_DAYS);
        let (lo, hi) = (day_literal(lo), day_literal(lo + WINDOW_DAYS));
        let dest = CITIES[rng.below(CITIES.len())];
        let fid = rng.below(self.scale.flights);
        format!(
            "BEGIN; SELECT @hometown FROM User WHERE uid={uid}; \
             SELECT fid AS @f FROM Reserve WHERE uid={uid}; \
             SELECT destination FROM Flight WHERE fid=@f; \
             SELECT uid2 FROM Friends WHERE uid1={uid}; \
             SELECT fid FROM Sched WHERE day BETWEEN {lo} AND {hi}; \
             SELECT seats FROM Sched WHERE dest='{dest}' AND day >= {lo} AND day <= {hi}; \
             SELECT uid FROM Reserve WHERE fid={fid}; \
             SELECT fid FROM Flight WHERE source=@hometown; COMMIT;"
        )
    }

    fn seat_update(&self, rng: &mut Rng) -> String {
        let lo = rng.below(HORIZON_DAYS - WINDOW_DAYS);
        let (lo, hi) = (day_literal(lo), day_literal(lo + WINDOW_DAYS));
        let dest = CITIES[rng.below(CITIES.len())];
        format!(
            "BEGIN; UPDATE Sched SET seats = seats - 1 \
             WHERE dest='{dest}' AND day >= {lo} AND day <= {hi}; COMMIT;"
        )
    }
}

/// Tables `crossshard` writes, and one point write on each.
const SHARD_TABLES: [&str; 4] = ["Reserve", "User", "Flight", "Friends"];

fn point_write(table: usize, scale: Scale, rng: &mut Rng) -> String {
    let uid = rng.below(scale.users);
    match SHARD_TABLES[table] {
        "Reserve" => format!(
            "UPDATE Reserve SET fid={} WHERE uid={uid}",
            rng.below(scale.flights)
        ),
        "User" => format!("UPDATE User SET hometown=hometown WHERE uid={uid}"),
        "Flight" => format!(
            "UPDATE Flight SET fid=fid WHERE fid={}",
            rng.below(scale.flights)
        ),
        _ => format!(
            "INSERT INTO Friends VALUES ({uid}, {})",
            rng.below(scale.users)
        ),
    }
}

/// Table pairs whose shards differ at `shards`, by the engine's own rule.
pub fn straddling_pairs(shards: usize) -> Vec<(usize, usize)> {
    let shard: Vec<usize> = SHARD_TABLES
        .iter()
        .map(|t| shard_of_table(t, shards))
        .collect();
    let n = shard.len();
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
        .filter(|&(a, b)| shard[a] != shard[b])
        .collect()
}

fn hot_update(table: &str, rng: &mut Rng) -> String {
    let row = rng.below(HOT_ROWS);
    match table {
        "Reserve" => format!("UPDATE Reserve SET fid=fid WHERE uid={row}; "),
        _ => format!("UPDATE User SET hometown=hometown WHERE uid={row}; "),
    }
}

/// `waves` waves of [`WAVE`] transactions, none carried over. `txn` makes
/// transaction number `i`; mixes are a fixed function of `i` (so every
/// seed gives the same shares) and each wave is then shuffled.
fn plain_waves(
    waves: usize,
    rng: &mut Rng,
    mut txn: impl FnMut(usize, &mut Rng) -> String,
) -> Vec<Wave> {
    (0..waves)
        .map(|w| {
            let mut sql: Vec<String> = (w * WAVE..(w + 1) * WAVE).map(|i| txn(i, rng)).collect();
            shuffle(&mut sql, rng);
            Wave { sql, carry: 0 }
        })
        .collect()
}

/// Fisher-Yates.
fn shuffle(items: &mut [String], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// 100 % Entangled-T pairs; [`SPLIT_PAIRS`] pairs per wave have their
/// second half arrive one wave later.
fn entangled_waves(
    waves: usize,
    data: &Dataset,
    rng: &mut Rng,
    pairs: &mut Vec<Pair>,
) -> Vec<Wave> {
    let users = data.scale.users;
    // Second halves owed to the previous wave's first halves.
    let mut owed: Vec<Pair> = Vec::new();
    let mut out = Vec::with_capacity(waves);
    for w in 0..waves {
        let split = if w + 1 < waves { SPLIT_PAIRS } else { 0 };
        let full = (WAVE - owed.len() - split) / 2;
        // Users are distinct within a wave, carried ones included: a lone
        // first half then has no partner even at pattern level (it waits
        // instead of getting an empty answer), and no two members of a
        // wave book under the same uid.
        let mut used: BTreeSet<usize> = owed.iter().flat_map(|p| [p.a, p.b]).collect();
        let mut sql: Vec<String> = owed
            .drain(..)
            .map(|p| data.entangled(p.b, p.a, p.dest))
            .collect();
        for k in 0..full + split {
            let (a, b) = loop {
                let a = rng.below(users);
                let friends = &data.town_friends[a];
                if used.contains(&a) || friends.is_empty() {
                    continue;
                }
                let b = friends[rng.below(friends.len())];
                if !used.contains(&b) {
                    break (a, b);
                }
            };
            used.extend([a, b]);
            let pair = Pair {
                a,
                b,
                dest: data.destination(a, rng),
            };
            pairs.push(pair);
            sql.push(data.entangled(a, b, pair.dest));
            if k < full {
                sql.push(data.entangled(b, a, pair.dest));
            } else {
                owed.push(pair);
            }
        }
        shuffle(&mut sql, rng);
        out.push(Wave {
            sql,
            carry: owed.len(),
        });
    }
    out
}

/// Generate the inputs of `spec` at `scale` from `seed`. `spec.txns` is
/// rounded down to whole waves.
pub fn generate(spec: Spec, scale: Scale, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let data = Dataset::generate(scale, &mut rng);
    let n = spec.txns / WAVE;
    let mut expect = Expect {
        reserve_rows: scale.users,
        ..Expect::default()
    };
    let waves = match spec.name {
        // 50 % individual, 30 % rebook, 20 % social.
        "booking" => plain_waves(n, &mut rng, |i, rng| {
            let uid = rng.below(scale.users);
            match i % 10 {
                0..=4 => {
                    expect.reserve_rows += 1;
                    data.booking(uid, rng)
                }
                5..=7 => data.rebook(uid, rng),
                _ => {
                    expect.reserve_rows += 1;
                    data.social_booking(uid, rng)
                }
            }
        }),
        "entangled" => {
            let waves = entangled_waves(n, &data, &mut rng, &mut expect.pairs);
            expect.reserve_rows += 2 * expect.pairs.len();
            waves
        }
        // 90 % readers, 5 % bookings, 5 % seat updates.
        "dashboard" => plain_waves(n, &mut rng, |i, rng| match i % 20 {
            0 => {
                expect.reserve_rows += 1;
                data.booking(rng.below(scale.users), rng)
            }
            10 => data.seat_update(rng),
            _ => data.dashboard(rng.below(scale.users), rng),
        }),
        // Half one table, half two tables on different shards. Every
        // two-table transaction takes its tables in the same order, so
        // row collisions wait but never deadlock.
        "crossshard" => {
            let pairs = straddling_pairs(spec.shards);
            assert!(!pairs.is_empty(), "no table pair straddles the shards");
            plain_waves(n, &mut rng, |i, rng| {
                if i % 2 == 0 {
                    let table = (i / 2) % SHARD_TABLES.len();
                    format!("BEGIN; {}; COMMIT;", point_write(table, scale, rng))
                } else {
                    let (a, b) = pairs[(i / 2) % pairs.len()];
                    format!(
                        "BEGIN; {}; {}; COMMIT;",
                        point_write(a, scale, rng),
                        point_write(b, scale, rng)
                    )
                }
            })
        }
        "hotrows" => {
            expect.unchanged = true;
            plain_waves(n, &mut rng, |i, rng| {
                // Odd and even transactions take the two tables in
                // opposite order: this is what closes cycles.
                let order = if i % 2 == 0 {
                    ["Reserve", "User"]
                } else {
                    ["User", "Reserve"]
                };
                let mut s = String::from("BEGIN; ");
                for table in order {
                    for _ in 0..3 {
                        s.push_str(&hot_update(table, rng));
                    }
                }
                s.push_str("COMMIT;");
                s
            })
        }
        other => unreachable!("unknown workload {other}"),
    };
    Inputs {
        setup: data.setup_script(),
        waves,
        expect,
        hometown: data.hometown,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(mut spec: Spec) -> Spec {
        spec.txns = 4 * WAVE;
        spec
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_other_seeds_differ() {
        for spec in SPECS.map(small) {
            let a = generate(spec, Scale::SMOKE, 11);
            let b = generate(spec, Scale::SMOKE, 11);
            let c = generate(spec, Scale::SMOKE, 12);
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a.setup, c.setup, "{}", spec.name);
            assert_ne!(a.waves, c.waves, "{}", spec.name);
            assert_eq!(a.txns(), spec.txns);
        }
    }

    #[test]
    fn every_ordered_city_pair_has_a_flight() {
        let n = CITIES.len();
        let routes: BTreeSet<(usize, usize)> = (0..n * (n - 1)).map(flight_route).collect();
        assert_eq!(routes.len(), n * (n - 1));
        assert!(routes.iter().all(|(s, d)| s != d));
    }

    #[test]
    fn entangled_waves_hold_over_a_quarter_of_their_pairs() {
        let mut spec = spec("entangled").unwrap();
        spec.txns = 6 * WAVE;
        let inputs = generate(spec, Scale::SMOKE, 3);
        let carries: Vec<usize> = inputs.waves.iter().map(|w| w.carry).collect();
        assert_eq!(carries, [4, 4, 4, 4, 4, 0]);
        assert!(inputs.waves.iter().all(|w| w.sql.len() == WAVE));
        assert_eq!(inputs.expect.pairs.len(), 6 * WAVE / 2);
        for p in &inputs.expect.pairs {
            assert_eq!(inputs.hometown[p.a], inputs.hometown[p.b]);
            assert_ne!(inputs.hometown[p.a], p.dest);
        }
    }

    #[test]
    fn crossshard_has_pairs_that_straddle_two_shards() {
        assert!(!straddling_pairs(2).is_empty());
        assert!(straddling_pairs(1).is_empty());
    }
}
