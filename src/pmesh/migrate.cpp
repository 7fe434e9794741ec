#include "pmesh/migrate.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/assert.hpp"

namespace plum::pmesh {

namespace {

// The pack payload rides the bulk tag (obs::tag_class_name); the state and
// SPL-repair traffic has its own tags.
constexpr int kTagPack = 0;
constexpr int kTagState = 21;
constexpr int kTagSplReport = 22;
constexpr int kTagSplReply = 23;

/// Identity of a vertex or edge across ranks: (owner, owner's local id),
/// owner = the lowest rank holding a copy. Ascending keys give exactly the
/// global numbering finalize_gather assigns.
using Key = std::uint64_t;
/// Edge sort keys carry this bit for level > 0, so initial edges come
/// first (finalize_gather numbers them in a separate first pass).
constexpr Key kLevelBit = Key{1} << 63;

constexpr Key make_key(Rank owner, Index lid) {
  return (static_cast<Key>(static_cast<std::uint32_t>(owner)) << 32) |
         static_cast<std::uint32_t>(lid);
}
constexpr Rank key_owner(Key k) {
  return static_cast<Rank>((k & ~kLevelBit) >> 32);
}
constexpr Index key_lid(Key k) {
  return static_cast<Index>(k & 0xffffffffu);
}

/// Per-object status bits of the old mesh.
constexpr std::uint8_t kKept = 1;    ///< used by an element that stays
constexpr std::uint8_t kShared = 2;  ///< had an SPL before the move
constexpr std::uint8_t kSent = 4;    ///< packed for at least one peer
constexpr std::uint8_t kRef = 8;     ///< a peer's pack refers to this copy

/// Record flag bits in pack messages.
constexpr std::uint8_t kFlagBoundary = 1;
constexpr std::uint8_t kFlagAlive = 2;
/// The sender drops the object, had no SPL for it and sends it to this
/// destination only: it cannot be shared after the move.
constexpr std::uint8_t kFlagExclusive = 4;

/// A vertex or edge reference in a pack message is an index into the
/// message's own table, kInvalidIndex for "not in this message", or, for
/// an object the destination already holds, its local id there encoded as
/// -(id + 2) — such objects travel as a reference, not as a record.
constexpr Index encode_held(Index remote_id) { return -remote_id - 2; }
constexpr Index decode_held(Index ref) { return -ref - 2; }

/// Pack message header: record counts and byte offsets of the six tables.
struct PackHeader {
  enum Table { kElems, kEdges, kVerts, kBFaces, kRoots, kStates, kTables };
  std::int64_t count[kTables];
  std::int64_t offset[kTables];
};
static_assert(sizeof(PackHeader) == kSetFramingBytes,
              "the pack header is the per-set framing the cost model prices");

// Serialized record sizes (fields back to back, no struct padding).
constexpr std::size_t kElemRecord = 13 * sizeof(Index) + 4;
constexpr std::size_t kEdgeRecord = 8 * sizeof(Index) + 2;
constexpr std::size_t kVertRecord = 2 * sizeof(Index) + 3 * sizeof(double) + 1;
constexpr std::size_t kBFaceRecord = 11 * sizeof(Index) + 2;
constexpr std::size_t kRootRecord = sizeof(Index);
constexpr std::size_t kStateRecord = sizeof(solver::State);
static_assert(sizeof(solver::State) == solver::kNumVars * sizeof(double));

/// Writes trivially-copyable fields back to back into a buffer of a size
/// fixed up front.
class ByteWriter {
 public:
  explicit ByteWriter(std::size_t size) : buf_(size) {}

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PLUM_ASSERT(pos_ + sizeof(T) <= buf_.size());
    std::memcpy(buf_.data() + pos_, &v, sizeof(T));
    pos_ += sizeof(T);
  }
  /// The filled buffer (every byte must have been written).
  [[nodiscard]] std::vector<std::byte> take() {
    PLUM_ASSERT(pos_ == buf_.size());
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

/// Reads fields back in the order a ByteWriter wrote them.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes, std::size_t at = 0)
      : bytes_(bytes), pos_(at) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    PLUM_ASSERT_MSG(pos_ + sizeof(T) <= bytes_.size(), "truncated message");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_;
};

template <typename Map>
Index ref(const Map& map, Index id) {
  return id == kInvalidIndex ? kInvalidIndex
                             : map[static_cast<std::size_t>(id)];
}

/// Identity keys of `n` objects on rank `self` given their SPL map.
std::vector<Key> identity_keys(Rank self, Index n, const SplMap& spl) {
  std::vector<Key> keys(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    keys[static_cast<std::size_t>(i)] = make_key(self, i);
  }
  for (const auto& [lid, copies] : spl) {
    Rank owner = self;
    Index owner_lid = lid;
    for (const auto& c : copies) {
      if (c.rank < owner) {
        owner = c.rank;
        owner_lid = c.remote_id;
      }
    }
    keys[static_cast<std::size_t>(lid)] = make_key(owner, owner_lid);
  }
  return keys;
}

/// Local id of `lid`'s copy on rank `q` per the SPL map, or kInvalidIndex.
Index copy_on(const SplMap& spl, Index lid, Rank q) {
  const auto it = spl.find(lid);
  if (it == spl.end()) return kInvalidIndex;
  for (const auto& c : it->second) {
    if (c.rank == q) return c.remote_id;
  }
  return kInvalidIndex;
}

/// "I hold the object with key (owner, owner_lid) as new local id new_lid."
struct Report {
  Rank owner;
  bool edge;  ///< an edge, else a vertex
  Index owner_lid;
  Index new_lid;
};

/// One SPL answer for this rank: local id -> copies (rank order).
struct SplEntry {
  Index lid;
  std::vector<SharedCopy> copies;
};

/// What rank r carries from one superstep to the next (written only by
/// rank r, so the parallel engine may run ranks concurrently).
struct RankWork {
  // Old-mesh tables, built by the pack step and read by the unpack step.
  std::vector<Key> vkey;  ///< identity keys
  std::vector<Key> ekey;  ///< edge sort keys (kLevelBit | identity)
  std::vector<std::uint8_t> vstat, estat;  ///< kKept | kShared | kSent | kRef
  std::vector<Rank> tdest;  ///< new rank per element (kNoRank if dead)
  std::vector<Rank> fdest;  ///< new rank per boundary face

  // SPL reports a rank files with itself as owner (never sent).
  std::vector<Report> self_reports;
  // SPL answers for this rank's own copies, installed with the replies.
  std::vector<SplEntry> own_vspl, own_espl;

  Index roots_moved = 0;
  std::int64_t elements_moved = 0;
  int sets = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
};

void send_counted(rt::Outbox& out, RankWork& w, Rank to, int tag,
                  std::vector<std::byte> bytes) {
  w.bytes_sent += static_cast<std::int64_t>(bytes.size());
  out.send(to, tag, std::move(bytes));
}

// ---------------------------------------------------------------------------
// Canonical states: the highest-rank holder's copy wins.
// ---------------------------------------------------------------------------

struct StateEntry {
  Rank to;
  Index remote_id;
  Index v;
};

void send_canonical_states(Rank r, const LocalMesh& lm,
                           const std::vector<solver::State>& su,
                           const obs::MemScratch& ms, RankWork& w,
                           rt::Outbox& out) {
  // plum-scale: scratch -- per-message state staging, arena-backed
  obs::TrackedVec<StateEntry> entries{obs::TrackingAllocator<StateEntry>{ms}};
  for (const auto& [v, copies] : lm.shared_verts) {
    const bool highest =
        std::all_of(copies.begin(), copies.end(),
                    [&](const SharedCopy& c) { return c.rank < r; });
    if (!highest) continue;
    for (const auto& c : copies) entries.push_back({c.rank, c.remote_id, v});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const StateEntry& a, const StateEntry& b) {
                     return a.to < b.to;
                   });
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    while (j < entries.size() && entries[j].to == entries[i].to) ++j;
    ByteWriter bw((j - i) * (sizeof(Index) + kStateRecord));
    for (std::size_t k = i; k < j; ++k) {
      bw.put(entries[k].remote_id);
      bw.put(su[static_cast<std::size_t>(entries[k].v)]);
    }
    send_counted(out, w, entries[i].to, kTagState, bw.take());
    i = j;
  }
}

void apply_canonical_states(const rt::Inbox& inbox,
                            std::vector<solver::State>& su) {
  for (const auto* m : inbox.with_tag(kTagState)) {
    ByteReader rd(m->bytes);
    while (!rd.done()) {
      const auto v = rd.get<Index>();
      su[static_cast<std::size_t>(v)] = rd.get<solver::State>();
    }
  }
}

// ---------------------------------------------------------------------------
// Pack: one message per destination with the leaving subtrees.
// ---------------------------------------------------------------------------

struct Leaving {
  Rank dest;
  Index id;
};

void pack_and_send(Rank r, const LocalMesh& lm,
                   const partition::PartVec& new_root_part,
                   const std::vector<solver::State>* su,
                   const obs::MemScratch& ms, RankWork& w, rt::Outbox& out) {
  const mesh::TetMesh& m = lm.mesh;
  const Index nt = m.num_elements();
  const Index nv = m.num_vertices();
  const Index ne = m.num_edges();
  const Index nf = m.num_bfaces();

  w.vkey = identity_keys(r, nv, lm.shared_verts);
  w.ekey = identity_keys(r, ne, lm.shared_edges);
  for (Index e = 0; e < ne; ++e) {
    if (m.edge(e).level > 0) w.ekey[static_cast<std::size_t>(e)] |= kLevelBit;
  }
  w.vstat.assign(static_cast<std::size_t>(nv), 0);
  w.estat.assign(static_cast<std::size_t>(ne), 0);
  for (const auto& [v, copies] : lm.shared_verts) {
    w.vstat[static_cast<std::size_t>(v)] |= kShared;
  }
  for (const auto& [e, copies] : lm.shared_edges) {
    w.estat[static_cast<std::size_t>(e)] |= kShared;
  }

  for (const Index g : lm.root_global) {
    if (new_root_part[static_cast<std::size_t>(g)] != r) ++w.roots_moved;
  }

  // --- element and boundary-face destinations ------------------------------
  w.tdest.assign(static_cast<std::size_t>(nt), kNoRank);
  // plum-scale: scratch -- leaving elements grouped by destination, arena-backed
  obs::TrackedVec<Leaving> leaving{obs::TrackingAllocator<Leaving>{ms}};
  for (Index t = 0; t < nt; ++t) {
    const auto& el = m.element(t);
    if (!el.alive) continue;
    const Rank d = new_root_part[static_cast<std::size_t>(
        lm.root_global[static_cast<std::size_t>(el.root)])];
    w.tdest[static_cast<std::size_t>(t)] = d;
    const std::uint8_t bit = d == r ? kKept : kSent;
    for (Index v : el.verts) w.vstat[static_cast<std::size_t>(v)] |= bit;
    for (Index e : el.edges) w.estat[static_cast<std::size_t>(e)] |= bit;
    if (d != r) leaving.push_back({d, t});
  }
  w.elements_moved = static_cast<std::int64_t>(leaving.size());

  // A boundary face goes with the leaf element holding it; interior faces
  // of a face tree follow their first child (children have larger ids).
  w.fdest.assign(static_cast<std::size_t>(nf), kNoRank);
  for (Index f = nf - 1; f >= 0; --f) {
    const auto& bf = m.bface(f);
    if (!bf.alive) continue;
    Rank d = kNoRank;
    if (bf.is_leaf()) {
      for (Index t : m.edge_elements(bf.edges[0])) {
        const auto& vs = m.element(t).verts;
        int hits = 0;
        for (Index fv : bf.verts) {
          for (Index tv : vs) hits += (tv == fv);
        }
        if (hits == 3) {
          d = w.tdest[static_cast<std::size_t>(t)];
          break;
        }
      }
      PLUM_ASSERT_MSG(d != kNoRank, "boundary face without an element");
    } else {
      PLUM_ASSERT(bf.child[0] != kInvalidIndex);
      d = w.fdest[static_cast<std::size_t>(bf.child[0])];
    }
    w.fdest[static_cast<std::size_t>(f)] = d;
  }
  if (leaving.empty()) return;

  // plum-scale: scratch -- leaving boundary faces grouped by destination, arena-backed
  obs::TrackedVec<Leaving> leaving_faces{obs::TrackingAllocator<Leaving>{ms}};
  for (Index f = 0; f < nf; ++f) {
    const Rank d = w.fdest[static_cast<std::size_t>(f)];
    if (d != kNoRank && d != r) leaving_faces.push_back({d, f});
  }
  const auto by_dest = [](const Leaving& a, const Leaving& b) {
    return a.dest < b.dest;
  };
  std::stable_sort(leaving.begin(), leaving.end(), by_dest);
  std::stable_sort(leaving_faces.begin(), leaving_faces.end(), by_dest);

  // --- exclusivity: count the destinations each object is packed for -------
  // plum-scale: scratch -- per-object last destination, arena-backed
  obs::TrackedVec<Rank> vlast(static_cast<std::size_t>(nv), kNoRank,
                              obs::TrackingAllocator<Rank>{ms});
  // plum-scale: scratch -- per-object last destination, arena-backed
  obs::TrackedVec<Rank> elast(static_cast<std::size_t>(ne), kNoRank,
                              obs::TrackingAllocator<Rank>{ms});
  // plum-scale: scratch -- per-object destination counts (saturating at 2), arena-backed
  obs::TrackedVec<std::uint8_t> vdests(static_cast<std::size_t>(nv), 0,
                                       obs::TrackingAllocator<std::uint8_t>{ms});
  // plum-scale: scratch -- per-object destination counts (saturating at 2), arena-backed
  obs::TrackedVec<std::uint8_t> edests(static_cast<std::size_t>(ne), 0,
                                       obs::TrackingAllocator<std::uint8_t>{ms});
  const auto count_dest = [](Rank& last, std::uint8_t& n, Rank d) {
    if (last == d) return;
    last = d;
    n = static_cast<std::uint8_t>(std::min(n + 1, 2));
  };
  for (const Leaving& l : leaving) {
    const auto& el = m.element(l.id);
    for (Index v : el.verts) {
      count_dest(vlast[static_cast<std::size_t>(v)],
                 vdests[static_cast<std::size_t>(v)], l.dest);
    }
    for (Index e : el.edges) {
      count_dest(elast[static_cast<std::size_t>(e)],
                 edests[static_cast<std::size_t>(e)], l.dest);
    }
  }
  const auto flags = [](bool boundary, bool alive, std::uint8_t stat,
                        std::uint8_t ndest) {
    const bool exclusive = (stat & (kKept | kShared)) == 0 && ndest == 1;
    return static_cast<std::uint8_t>((boundary ? kFlagBoundary : 0) |
                                     (alive ? kFlagAlive : 0) |
                                     (exclusive ? kFlagExclusive : 0));
  };

  // --- build one message per destination ------------------------------------
  // Old id -> message reference; every entry set for one message is reset
  // through that message's own lists before the next one.
  // plum-scale: scratch -- old id -> message index, reused per message
  obs::TrackedVec<Index> tidx(static_cast<std::size_t>(nt), kInvalidIndex,
                              obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- old id -> message reference, reused per message
  obs::TrackedVec<Index> vidx(static_cast<std::size_t>(nv), kInvalidIndex,
                              obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- old id -> message reference, reused per message
  obs::TrackedVec<Index> eidx(static_cast<std::size_t>(ne), kInvalidIndex,
                              obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- old id -> message index, reused per message
  obs::TrackedVec<Index> fidx(static_cast<std::size_t>(nf), kInvalidIndex,
                              obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- one message's vertices/edges (old ids), arena-backed
  obs::TrackedVec<Index> verts{obs::TrackingAllocator<Index>{ms}};
  // plum-scale: scratch -- one message's vertices/edges (old ids), arena-backed
  obs::TrackedVec<Index> edges{obs::TrackingAllocator<Index>{ms}};
  // plum-scale: scratch -- objects the destination already holds, arena-backed
  obs::TrackedVec<Index> held_verts{obs::TrackingAllocator<Index>{ms}};
  // plum-scale: scratch -- objects the destination already holds, arena-backed
  obs::TrackedVec<Index> held_edges{obs::TrackingAllocator<Index>{ms}};

  // Touches an object of a packed element: objects the destination already
  // holds become references to its copy, the rest records of this message.
  const auto touch = [](Index id, Rank d, std::uint8_t stat, const SplMap& spl,
                        obs::TrackedVec<Index>& map,
                        obs::TrackedVec<Index>& records,
                        obs::TrackedVec<Index>& held) {
    auto& slot = map[static_cast<std::size_t>(id)];
    if (slot != kInvalidIndex) return;
    const Index remote =
        (stat & kShared) != 0 ? copy_on(spl, id, d) : kInvalidIndex;
    if (remote != kInvalidIndex) {
      slot = encode_held(remote);
      held.push_back(id);
    } else {
      slot = 0;  // numbered below, after sorting by key
      records.push_back(id);
    }
  };

  std::size_t fi = 0;
  for (std::size_t i = 0; i < leaving.size();) {
    const Rank d = leaving[i].dest;
    std::size_t j = i;
    while (j < leaving.size() && leaving[j].dest == d) ++j;
    while (fi < leaving_faces.size() && leaving_faces[fi].dest < d) ++fi;
    std::size_t fj = fi;
    while (fj < leaving_faces.size() && leaving_faces[fj].dest == d) ++fj;
    const std::span<const Leaving> elems(leaving.data() + i, j - i);
    const std::span<const Leaving> faces(leaving_faces.data() + fi, fj - fi);

    std::int64_t nroots = 0;
    for (std::size_t k = 0; k < elems.size(); ++k) {
      const Index t = elems[k].id;
      tidx[static_cast<std::size_t>(t)] = static_cast<Index>(k);
      const auto& el = m.element(t);
      nroots += (el.level == 0);
      for (Index v : el.verts) {
        touch(v, d, w.vstat[static_cast<std::size_t>(v)], lm.shared_verts,
              vidx, verts, held_verts);
      }
      for (Index e : el.edges) {
        touch(e, d, w.estat[static_cast<std::size_t>(e)], lm.shared_edges,
              eidx, edges, held_edges);
      }
    }
    // Records go out in key order, so the receiver merges instead of sorts.
    std::sort(verts.begin(), verts.end(), [&](Index a, Index b) {
      return w.vkey[static_cast<std::size_t>(a)] <
             w.vkey[static_cast<std::size_t>(b)];
    });
    std::sort(edges.begin(), edges.end(), [&](Index a, Index b) {
      return w.ekey[static_cast<std::size_t>(a)] <
             w.ekey[static_cast<std::size_t>(b)];
    });
    for (std::size_t k = 0; k < verts.size(); ++k) {
      vidx[static_cast<std::size_t>(verts[k])] = static_cast<Index>(k);
    }
    for (std::size_t k = 0; k < edges.size(); ++k) {
      eidx[static_cast<std::size_t>(edges[k])] = static_cast<Index>(k);
    }
    for (std::size_t k = 0; k < faces.size(); ++k) {
      fidx[static_cast<std::size_t>(faces[k].id)] = static_cast<Index>(k);
    }

    PackHeader h{};
    h.count[PackHeader::kElems] = static_cast<std::int64_t>(elems.size());
    h.count[PackHeader::kEdges] = static_cast<std::int64_t>(edges.size());
    h.count[PackHeader::kVerts] = static_cast<std::int64_t>(verts.size());
    h.count[PackHeader::kBFaces] = static_cast<std::int64_t>(faces.size());
    h.count[PackHeader::kRoots] = nroots;
    h.count[PackHeader::kStates] =
        su != nullptr ? static_cast<std::int64_t>(verts.size()) : 0;
    constexpr std::size_t kRecord[PackHeader::kTables] = {
        kElemRecord, kEdgeRecord, kVertRecord,
        kBFaceRecord, kRootRecord, kStateRecord};
    std::int64_t at = sizeof(PackHeader);
    for (int tb = 0; tb < PackHeader::kTables; ++tb) {
      h.offset[tb] = at;
      at += h.count[tb] * static_cast<std::int64_t>(kRecord[tb]);
    }
    ByteWriter bw(static_cast<std::size_t>(at));
    bw.put(h);

    for (const Leaving& l : elems) {
      const auto& el = m.element(l.id);
      for (Index v : el.verts) bw.put(vidx[static_cast<std::size_t>(v)]);
      for (Index e : el.edges) bw.put(eidx[static_cast<std::size_t>(e)]);
      bw.put(ref(tidx, el.parent));
      bw.put(ref(tidx, el.first_child));
      const Index root = tidx[static_cast<std::size_t>(el.root)];
      PLUM_ASSERT_MSG(root != kInvalidIndex, "subtree packed without root");
      bw.put(root);
      bw.put(el.num_children);
      bw.put(el.level);
      bw.put(el.subdiv_type);
      bw.put(static_cast<std::uint8_t>(el.alive));
    }
    for (Index e : edges) {
      const auto& ed = m.edge(e);
      const Key key = w.ekey[static_cast<std::size_t>(e)];
      bw.put(key_owner(key));
      bw.put(key_lid(key));
      bw.put(vidx[static_cast<std::size_t>(ed.v0)]);
      bw.put(vidx[static_cast<std::size_t>(ed.v1)]);
      bw.put(ref(eidx, ed.parent));
      bw.put(ref(eidx, ed.child[0]));
      bw.put(ref(eidx, ed.child[1]));
      bw.put(ref(vidx, ed.mid));
      bw.put(ed.level);
      bw.put(flags(ed.boundary, ed.alive, w.estat[static_cast<std::size_t>(e)],
                   edests[static_cast<std::size_t>(e)]));
    }
    for (Index v : verts) {
      const auto& vx = m.vertex(v);
      const Key key = w.vkey[static_cast<std::size_t>(v)];
      bw.put(key_owner(key));
      bw.put(key_lid(key));
      bw.put(vx.pos.x);
      bw.put(vx.pos.y);
      bw.put(vx.pos.z);
      bw.put(flags(vx.boundary, vx.alive, w.vstat[static_cast<std::size_t>(v)],
                   vdests[static_cast<std::size_t>(v)]));
    }
    for (const Leaving& l : faces) {
      const auto& bf = m.bface(l.id);
      for (Index v : bf.verts) {
        const Index mv = vidx[static_cast<std::size_t>(v)];
        PLUM_ASSERT_MSG(mv != kInvalidIndex, "boundary face vertex not packed");
        bw.put(mv);
      }
      for (Index e : bf.edges) {
        const Index me = eidx[static_cast<std::size_t>(e)];
        PLUM_ASSERT_MSG(me != kInvalidIndex, "boundary face edge not packed");
        bw.put(me);
      }
      bw.put(ref(fidx, bf.parent));
      for (Index c : bf.child) bw.put(ref(fidx, c));
      bw.put(bf.num_children);
      bw.put(static_cast<std::uint8_t>(bf.alive));
    }
    for (const Leaving& l : elems) {
      if (m.element(l.id).level == 0) {
        bw.put(lm.root_global[static_cast<std::size_t>(l.id)]);
      }
    }
    if (su != nullptr) {
      for (Index v : verts) bw.put((*su)[static_cast<std::size_t>(v)]);
    }
    ++w.sets;
    send_counted(out, w, d, kTagPack, bw.take());

    for (const Leaving& l : elems) {
      tidx[static_cast<std::size_t>(l.id)] = kInvalidIndex;
    }
    for (const Leaving& l : faces) {
      fidx[static_cast<std::size_t>(l.id)] = kInvalidIndex;
    }
    for (auto* list : {&verts, &held_verts}) {
      for (Index v : *list) vidx[static_cast<std::size_t>(v)] = kInvalidIndex;
      list->clear();
    }
    for (auto* list : {&edges, &held_edges}) {
      for (Index e : *list) eidx[static_cast<std::size_t>(e)] = kInvalidIndex;
      list->clear();
    }
    i = j;
    fi = fj;
  }
}

// ---------------------------------------------------------------------------
// Unpack: rebuild the local mesh from kept + received records.
// ---------------------------------------------------------------------------

/// Every received record, all messages concatenated in sender order. An
/// object's *slot* is its old local id on this rank, or (number of old
/// objects of its kind) + its position here; received references are
/// translated to slots while decoding, so old and received records share
/// one id space.
struct Received {
  std::vector<Rank> from;  ///< sender of each message
  std::vector<std::size_t> elem_begin;  ///< first element of each message
  std::vector<std::size_t> bface_begin;
  std::vector<mesh::Element> elems;
  std::vector<Index> elem_root_global;  ///< for level-0 elements
  std::vector<mesh::Edge> edges;
  std::vector<Key> ekey;  ///< edge sort keys
  std::vector<std::uint8_t> eflags;
  std::vector<std::size_t> edge_begin;  ///< first edge of each message
  std::vector<mesh::Vertex> verts;
  std::vector<Key> vkey;
  std::vector<std::uint8_t> vflags;
  std::vector<std::size_t> vert_begin;  ///< first vertex of each message
  std::vector<solver::State> states;
  std::vector<mesh::BFace> bfaces;
};

Received decode_all(const rt::Inbox& inbox, const mesh::TetMesh& old,
                    bool with_states, RankWork& w) {
  const Index nv_old = old.num_vertices();
  const Index ne_old = old.num_edges();
  const Index nt_old = old.num_elements();
  const Index nf_old = old.num_bfaces();
  Received rx;
  for (const auto* msg : inbox.with_tag(kTagPack)) {
    ByteReader hr(msg->bytes);
    const auto h = hr.get<PackHeader>();
    const auto count = [&](int tb) {
      return static_cast<std::size_t>(h.count[tb]);
    };
    const auto table = [&](int tb) {
      return ByteReader(msg->bytes, static_cast<std::size_t>(h.offset[tb]));
    };
    const auto vbase = static_cast<Index>(nv_old + rx.verts.size());
    const auto ebase = static_cast<Index>(ne_old + rx.edges.size());
    const auto tbase = static_cast<Index>(nt_old + rx.elems.size());
    const auto fbase = static_cast<Index>(nf_old + rx.bfaces.size());
    // Message reference -> slot (held objects are this rank's old copies).
    const auto vslot = [&](Index id) {
      if (id == kInvalidIndex) return kInvalidIndex;
      if (id >= 0) return vbase + id;
      const Index v = decode_held(id);
      w.vstat[static_cast<std::size_t>(v)] |= kRef;
      return v;
    };
    const auto eslot = [&](Index id) {
      if (id == kInvalidIndex) return kInvalidIndex;
      if (id >= 0) return ebase + id;
      const Index e = decode_held(id);
      w.estat[static_cast<std::size_t>(e)] |= kRef;
      return e;
    };
    const auto local = [](Index base, Index id) {
      return id == kInvalidIndex ? kInvalidIndex : base + id;
    };
    rx.from.push_back(msg->from);
    rx.elem_begin.push_back(rx.elems.size());
    rx.bface_begin.push_back(rx.bfaces.size());
    rx.edge_begin.push_back(rx.edges.size());
    rx.vert_begin.push_back(rx.verts.size());

    ByteReader er = table(PackHeader::kElems);
    ByteReader gr = table(PackHeader::kRoots);
    for (std::size_t i = 0; i < count(PackHeader::kElems); ++i) {
      mesh::Element el;
      for (auto& v : el.verts) v = vslot(er.get<Index>());
      for (auto& e : el.edges) e = eslot(er.get<Index>());
      el.parent = local(tbase, er.get<Index>());
      el.first_child = local(tbase, er.get<Index>());
      el.root = local(tbase, er.get<Index>());
      el.num_children = er.get<std::int8_t>();
      el.level = er.get<std::int8_t>();
      el.subdiv_type = er.get<std::int8_t>();
      el.alive = er.get<std::uint8_t>() != 0;
      rx.elem_root_global.push_back(el.level == 0 ? gr.get<Index>()
                                                  : kInvalidIndex);
      rx.elems.push_back(el);
    }
    ByteReader dr = table(PackHeader::kEdges);
    for (std::size_t i = 0; i < count(PackHeader::kEdges); ++i) {
      const Rank owner = dr.get<Rank>();
      const Index lid = dr.get<Index>();
      mesh::Edge ed;
      ed.v0 = vslot(dr.get<Index>());
      ed.v1 = vslot(dr.get<Index>());
      ed.parent = eslot(dr.get<Index>());
      ed.child[0] = eslot(dr.get<Index>());
      ed.child[1] = eslot(dr.get<Index>());
      ed.mid = vslot(dr.get<Index>());
      ed.level = dr.get<std::int8_t>();
      const auto fl = dr.get<std::uint8_t>();
      ed.boundary = (fl & kFlagBoundary) != 0;
      ed.alive = (fl & kFlagAlive) != 0;
      rx.edges.push_back(ed);
      rx.ekey.push_back(make_key(owner, lid) | (ed.level > 0 ? kLevelBit : 0));
      rx.eflags.push_back(fl);
    }
    ByteReader vr = table(PackHeader::kVerts);
    for (std::size_t i = 0; i < count(PackHeader::kVerts); ++i) {
      const Rank owner = vr.get<Rank>();
      const Index lid = vr.get<Index>();
      mesh::Vertex vx;
      vx.pos.x = vr.get<double>();
      vx.pos.y = vr.get<double>();
      vx.pos.z = vr.get<double>();
      const auto fl = vr.get<std::uint8_t>();
      vx.boundary = (fl & kFlagBoundary) != 0;
      vx.alive = (fl & kFlagAlive) != 0;
      rx.verts.push_back(vx);
      rx.vkey.push_back(make_key(owner, lid));
      rx.vflags.push_back(fl);
    }
    ByteReader fr = table(PackHeader::kBFaces);
    for (std::size_t i = 0; i < count(PackHeader::kBFaces); ++i) {
      mesh::BFace bf;
      for (auto& v : bf.verts) v = vslot(fr.get<Index>());
      for (auto& e : bf.edges) e = eslot(fr.get<Index>());
      bf.parent = local(fbase, fr.get<Index>());
      for (auto& c : bf.child) c = local(fbase, fr.get<Index>());
      bf.num_children = fr.get<std::int8_t>();
      bf.alive = fr.get<std::uint8_t>() != 0;
      rx.bfaces.push_back(bf);
    }
    if (with_states) {
      ByteReader sr = table(PackHeader::kStates);
      for (std::size_t i = 0; i < count(PackHeader::kStates); ++i) {
        rx.states.push_back(sr.get<solver::State>());
      }
    }
  }
  rx.elem_begin.push_back(rx.elems.size());
  rx.bface_begin.push_back(rx.bfaces.size());
  rx.edge_begin.push_back(rx.edges.size());
  rx.vert_begin.push_back(rx.verts.size());
  return rx;
}

struct KeySlot {
  Key key;
  Index slot;
  friend bool operator<(const KeySlot& a, const KeySlot& b) {
    return a.key != b.key ? a.key < b.key : a.slot < b.slot;
  }
};

/// (key, slot) entries of the old objects marked kKept or kRef plus every
/// received record, sorted by (key, slot). Received runs arrive key-sorted
/// and old objects this rank owns are key-sorted by construction, so the
/// entries are merged from sorted runs; only foreign-owned old objects
/// (the old partition boundary) need a sort.
obs::TrackedVec<KeySlot> sorted_entries(Rank r, const std::vector<Key>& old_key,
                                        const std::vector<std::uint8_t>& stat,
                                        const std::vector<Key>& rx_key,
                                        const std::vector<std::size_t>& runs,
                                        const obs::MemScratch& ms) {
  obs::TrackedVec<KeySlot> ent{obs::TrackingAllocator<KeySlot>{ms}};
  ent.reserve(old_key.size() + rx_key.size());
  // plum-scale: scratch -- foreign-owned old objects, arena-backed
  obs::TrackedVec<KeySlot> foreign{obs::TrackingAllocator<KeySlot>{ms}};
  for (std::size_t i = 0; i < old_key.size(); ++i) {
    if ((stat[i] & (kKept | kRef)) == 0) continue;
    const KeySlot ks{old_key[i], static_cast<Index>(i)};
    (key_owner(ks.key) == r ? ent : foreign).push_back(ks);
  }
  std::sort(foreign.begin(), foreign.end());
  // plum-scale: scratch -- run boundaries for the merge, arena-backed
  obs::TrackedVec<std::size_t> bounds{obs::TrackingAllocator<std::size_t>{ms}};
  bounds.push_back(0);
  bounds.push_back(ent.size());
  ent.insert(ent.end(), foreign.begin(), foreign.end());
  bounds.push_back(ent.size());
  const auto base = static_cast<Index>(old_key.size());
  for (std::size_t j = 0; j + 1 < runs.size(); ++j) {
    for (std::size_t i = runs[j]; i < runs[j + 1]; ++i) {
      ent.push_back({rx_key[i], base + static_cast<Index>(i)});
    }
    bounds.push_back(ent.size());
  }
  for (std::size_t b = 2; b < bounds.size(); ++b) {
    std::inplace_merge(ent.begin(),
                       ent.begin() + static_cast<std::ptrdiff_t>(bounds[b - 1]),
                       ent.begin() + static_cast<std::ptrdiff_t>(bounds[b]));
  }
  return ent;
}

/// New local id of the object with key `k`, or kInvalidIndex.
Index find_key(const std::vector<Key>& sorted, Key k) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), k);
  return it != sorted.end() && *it == k
             ? static_cast<Index>(it - sorted.begin())
             : kInvalidIndex;
}

void unpack_and_report(Rank r, LocalMesh& lm,
                       std::vector<solver::State>* su,
                       const rt::Inbox& inbox, const obs::MemScratch& ms,
                       RankWork& w, rt::Outbox& out) {
  const mesh::TetMesh& old = lm.mesh;
  const Received rx = decode_all(inbox, old, su != nullptr, w);
  const Index nv_old = old.num_vertices();
  const Index ne_old = old.num_edges();
  const Index nt_old = old.num_elements();
  const Index nf_old = old.num_bfaces();
  const auto rxi = [](Index slot, Index n_old) {
    return static_cast<std::size_t>(slot - n_old);
  };

  // --- vertices: kept + received, de-duplicated, in key order ---------------
  std::vector<Report> reports;
  // plum-scale: scratch -- slot -> new local id, arena-backed
  obs::TrackedVec<Index> vmap(static_cast<std::size_t>(nv_old) + rx.verts.size(),
                              kInvalidIndex, obs::TrackingAllocator<Index>{ms});
  std::vector<mesh::Vertex> nverts;
  std::vector<Key> nvkey;
  std::vector<solver::State> nstates;
  {
    const auto ent =
        sorted_entries(r, w.vkey, w.vstat, rx.vkey, rx.vert_begin, ms);
    for (std::size_t i = 0; i < ent.size();) {
      const auto id = static_cast<Index>(nverts.size());
      bool candidate = false;
      std::size_t j = i;
      for (; j < ent.size() && ent[j].key == ent[i].key; ++j) {
        const Index s = ent[j].slot;
        vmap[static_cast<std::size_t>(s)] = id;
        candidate |= s < nv_old ? (w.vstat[static_cast<std::size_t>(s)] &
                                   (kShared | kSent)) != 0
                                : (rx.vflags[rxi(s, nv_old)] & kFlagExclusive) == 0;
      }
      const Index s = ent[i].slot;
      const bool is_old = s < nv_old;
      nverts.push_back(is_old ? old.vertex(s) : rx.verts[rxi(s, nv_old)]);
      if (su != nullptr) {
        nstates.push_back(is_old ? (*su)[static_cast<std::size_t>(s)]
                                 : rx.states[rxi(s, nv_old)]);
      }
      nvkey.push_back(ent[i].key);
      if (candidate) {
        reports.push_back({key_owner(ent[i].key), false, key_lid(ent[i].key), id});
      }
      i = j;
    }
  }

  // --- edges: same, ordered by (level > 0, key) ------------------------------
  // plum-scale: scratch -- slot -> new local id, arena-backed
  obs::TrackedVec<Index> emap(static_cast<std::size_t>(ne_old) + rx.edges.size(),
                              kInvalidIndex, obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- first slot of every new edge, arena-backed
  obs::TrackedVec<Index> efirst{obs::TrackingAllocator<Index>{ms}};
  std::vector<Key> nekey;
  {
    const auto ent =
        sorted_entries(r, w.ekey, w.estat, rx.ekey, rx.edge_begin, ms);
    for (std::size_t i = 0; i < ent.size();) {
      const auto id = static_cast<Index>(nekey.size());
      bool candidate = false;
      std::size_t j = i;
      for (; j < ent.size() && ent[j].key == ent[i].key; ++j) {
        const Index s = ent[j].slot;
        emap[static_cast<std::size_t>(s)] = id;
        candidate |= s < ne_old ? (w.estat[static_cast<std::size_t>(s)] &
                                   (kShared | kSent)) != 0
                                : (rx.eflags[rxi(s, ne_old)] & kFlagExclusive) == 0;
      }
      efirst.push_back(ent[i].slot);
      nekey.push_back(ent[i].key);
      if (candidate) {
        reports.push_back({key_owner(ent[i].key), true, key_lid(ent[i].key), id});
      }
      i = j;
    }
  }

  const auto vkey_of = [&](Index s) {
    return s < nv_old ? w.vkey[static_cast<std::size_t>(s)]
                      : rx.vkey[rxi(s, nv_old)];
  };
  const auto ekey_of = [&](Index s) {
    return s < ne_old ? w.ekey[static_cast<std::size_t>(s)]
                      : rx.ekey[rxi(s, ne_old)];
  };
  std::vector<mesh::Edge> nedges;
  nedges.reserve(nekey.size());
  Index n_init_edges = 0;
  for (const Index s : efirst) {
    mesh::Edge ed = s < ne_old ? old.edge(s) : rx.edges[rxi(s, ne_old)];
    // Links survive only if their target is present here (the DistMesh
    // constructor's rule); targets are found by key.
    ed.v0 = vmap[static_cast<std::size_t>(ed.v0)];
    ed.v1 = vmap[static_cast<std::size_t>(ed.v1)];
    if (ed.v0 > ed.v1) std::swap(ed.v0, ed.v1);
    if (ed.parent != kInvalidIndex) ed.parent = find_key(nekey, ekey_of(ed.parent));
    Index c0 = kInvalidIndex, c1 = kInvalidIndex;
    if (ed.child[0] != kInvalidIndex && ed.child[1] != kInvalidIndex) {
      c0 = find_key(nekey, ekey_of(ed.child[0]));
      c1 = find_key(nekey, ekey_of(ed.child[1]));
    }
    if (c0 != kInvalidIndex && c1 != kInvalidIndex) {
      PLUM_ASSERT(ed.mid != kInvalidIndex);
      ed.child = {c0, c1};
      ed.mid = find_key(nvkey, vkey_of(ed.mid));
      PLUM_ASSERT(ed.mid != kInvalidIndex);
    } else {
      ed.child = {kInvalidIndex, kInvalidIndex};
      ed.mid = kInvalidIndex;
    }
    if (ed.level == 0) ++n_init_edges;
    nedges.push_back(ed);
  }

  // --- elements: (level > 0, old rank, old local id) ------------------------
  // Kept elements sit at rank r's place among the senders (the inbox is in
  // sender-rank order).
  std::size_t kept_at = 0;
  while (kept_at < rx.from.size() && rx.from[kept_at] < r) ++kept_at;
  // plum-scale: scratch -- slot -> new local id, arena-backed
  obs::TrackedVec<Index> tmap(static_cast<std::size_t>(nt_old) + rx.elems.size(),
                              kInvalidIndex, obs::TrackingAllocator<Index>{ms});
  // plum-scale: scratch -- slots in new order, arena-backed
  obs::TrackedVec<Index> order{obs::TrackingAllocator<Index>{ms}};
  Index n_init_elems = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const auto take = [&](Index s, const mesh::Element& el) {
      if ((el.level == 0) != (pass == 0)) return;
      tmap[static_cast<std::size_t>(s)] = static_cast<Index>(order.size());
      order.push_back(s);
    };
    for (std::size_t j = 0; j <= rx.from.size(); ++j) {
      if (j == kept_at) {
        for (Index t = 0; t < nt_old; ++t) {
          if (w.tdest[static_cast<std::size_t>(t)] == r) take(t, old.element(t));
        }
      }
      if (j == rx.from.size()) break;
      for (std::size_t i = rx.elem_begin[j]; i < rx.elem_begin[j + 1]; ++i) {
        take(nt_old + static_cast<Index>(i), rx.elems[i]);
      }
    }
    if (pass == 0) n_init_elems = static_cast<Index>(order.size());
  }
  std::vector<mesh::Element> nelems;
  nelems.reserve(order.size());
  std::vector<Index> root_global;
  root_global.reserve(static_cast<std::size_t>(n_init_elems));
  for (const Index s : order) {
    const bool is_old = s < nt_old;
    mesh::Element el = is_old ? old.element(s) : rx.elems[rxi(s, nt_old)];
    for (auto& v : el.verts) v = vmap[static_cast<std::size_t>(v)];
    for (auto& e : el.edges) e = emap[static_cast<std::size_t>(e)];
    el.parent = ref(tmap, el.parent);
    el.first_child = ref(tmap, el.first_child);
    el.root = tmap[static_cast<std::size_t>(el.root)];
    PLUM_ASSERT(el.root != kInvalidIndex);
    if (el.level == 0) {
      root_global.push_back(is_old
                                ? lm.root_global[static_cast<std::size_t>(s)]
                                : rx.elem_root_global[rxi(s, nt_old)]);
    }
    nelems.push_back(el);
  }

  // --- boundary faces: (old rank, old local id) ------------------------------
  // plum-scale: scratch -- slot -> new local id, arena-backed
  obs::TrackedVec<Index> fmap(static_cast<std::size_t>(nf_old) + rx.bfaces.size(),
                              kInvalidIndex, obs::TrackingAllocator<Index>{ms});
  order.clear();
  for (std::size_t j = 0; j <= rx.from.size(); ++j) {
    if (j == kept_at) {
      for (Index f = 0; f < nf_old; ++f) {
        if (w.fdest[static_cast<std::size_t>(f)] != r) continue;
        fmap[static_cast<std::size_t>(f)] = static_cast<Index>(order.size());
        order.push_back(f);
      }
    }
    if (j == rx.from.size()) break;
    for (std::size_t i = rx.bface_begin[j]; i < rx.bface_begin[j + 1]; ++i) {
      const Index s = nf_old + static_cast<Index>(i);
      fmap[static_cast<std::size_t>(s)] = static_cast<Index>(order.size());
      order.push_back(s);
    }
  }
  std::vector<mesh::BFace> nbfaces;
  nbfaces.reserve(order.size());
  for (const Index s : order) {
    mesh::BFace bf = s < nf_old ? old.bface(s) : rx.bfaces[rxi(s, nf_old)];
    for (auto& v : bf.verts) v = vmap[static_cast<std::size_t>(v)];
    for (auto& e : bf.edges) e = emap[static_cast<std::size_t>(e)];
    bf.parent = ref(fmap, bf.parent);
    for (auto& c : bf.child) c = ref(fmap, c);
    nbfaces.push_back(bf);
  }

  // --- install ------------------------------------------------------------------
  LocalMesh next;
  next.mesh = mesh::TetMesh::assemble(std::move(nverts), std::move(nedges),
                                      std::move(nelems), std::move(nbfaces),
                                      n_init_elems, n_init_edges);
  next.root_global = std::move(root_global);
  lm = std::move(next);
  if (su != nullptr) *su = std::move(nstates);
  w.vkey = {};
  w.ekey = {};
  w.vstat = {};
  w.estat = {};
  w.tdest = {};
  w.fdest = {};

  // --- SPL repair, part 1: report possibly-shared objects to their owners ----
  // Message to owner o: [#vertex reports], then (owner lid, new lid) pairs,
  // vertices first, then edges (the order they were filed in).
  std::stable_sort(reports.begin(), reports.end(),
                   [](const Report& a, const Report& b) {
                     return a.owner < b.owner;
                   });
  for (std::size_t i = 0; i < reports.size();) {
    const Rank o = reports[i].owner;
    std::size_t j = i;
    Index nv = 0;
    for (; j < reports.size() && reports[j].owner == o; ++j) {
      nv += reports[j].edge ? 0 : 1;
    }
    const std::span<const Report> group(reports.data() + i, j - i);
    if (o == r) {
      w.self_reports.assign(group.begin(), group.end());
    } else {
      ByteWriter bw(sizeof(Index) * (1 + 2 * group.size()));
      bw.put(nv);
      for (const Report& rp : group) {
        bw.put(rp.owner_lid);
        bw.put(rp.new_lid);
      }
      send_counted(out, w, o, kTagSplReport, bw.take());
    }
    i = j;
  }
}

// ---------------------------------------------------------------------------
// SPL repair, part 2: owners turn reports into holder lists.
// ---------------------------------------------------------------------------

struct Holder {
  Index owner_lid;
  Rank rank;
  Index lid;
};

struct Reply {
  Rank to;
  bool edge;
  std::uint32_t group;  ///< index of the holder group's first entry
  std::uint32_t size;
  Index lid;  ///< receiver's local id
};

void answer_reports(Rank r, const rt::Inbox& inbox, const obs::MemScratch& ms,
                    RankWork& w, rt::Outbox& out) {
  // Reported holders per kind: [0] vertices, [1] edges.
  // plum-scale: scratch -- reported holders, arena-backed
  std::array<obs::TrackedVec<Holder>, 2> holders{
      obs::TrackedVec<Holder>{obs::TrackingAllocator<Holder>{ms}},
      obs::TrackedVec<Holder>{obs::TrackingAllocator<Holder>{ms}}};
  for (const Report& rp : w.self_reports) {
    holders[rp.edge].push_back({rp.owner_lid, r, rp.new_lid});
  }
  w.self_reports = {};
  for (const auto* m : inbox.with_tag(kTagSplReport)) {
    ByteReader rd(m->bytes);
    const auto nv = rd.get<Index>();
    for (Index k = 0; !rd.done(); ++k) {
      const auto owner_lid = rd.get<Index>();
      const auto lid = rd.get<Index>();
      holders[k >= nv].push_back({owner_lid, m->from, lid});
    }
  }

  // Holder groups of two or more become SPLs (copies in rank order). The
  // owner keeps its own entries; the other holders get replies.
  // plum-scale: scratch -- replies grouped by destination, arena-backed
  obs::TrackedVec<Reply> replies{obs::TrackingAllocator<Reply>{ms}};
  for (const bool edge : {false, true}) {
    auto& hs = holders[edge];
    std::sort(hs.begin(), hs.end(), [](const Holder& a, const Holder& b) {
      return a.owner_lid != b.owner_lid ? a.owner_lid < b.owner_lid
                                        : a.rank < b.rank;
    });
    auto& mine = edge ? w.own_espl : w.own_vspl;
    for (std::size_t i = 0; i < hs.size();) {
      std::size_t j = i;
      while (j < hs.size() && hs[j].owner_lid == hs[i].owner_lid) ++j;
      for (std::size_t k = i; k < j && j - i >= 2; ++k) {
        if (hs[k].rank != r) {
          replies.push_back({hs[k].rank, edge, static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j - i), hs[k].lid});
          continue;
        }
        SplEntry& own = mine.emplace_back(SplEntry{hs[k].lid, {}});
        for (std::size_t o = i; o < j; ++o) {
          if (o != k) own.copies.push_back({hs[o].rank, hs[o].lid});
        }
      }
      i = j;
    }
  }
  std::stable_sort(replies.begin(), replies.end(),
                   [](const Reply& a, const Reply& b) { return a.to < b.to; });

  // Message to holder h: [#vertex entries], then entries (lid, n, n x
  // (rank, remote lid)), vertices first, then edges.
  for (std::size_t i = 0; i < replies.size();) {
    const Rank h = replies[i].to;
    std::size_t j = i;
    Index nv = 0;
    std::size_t bytes = sizeof(Index);
    for (; j < replies.size() && replies[j].to == h; ++j) {
      nv += replies[j].edge ? 0 : 1;
      bytes += sizeof(Index) * 2 * replies[j].size;
    }
    ByteWriter bw(bytes);
    bw.put(nv);
    for (const Reply& rp : std::span<const Reply>(replies.data() + i, j - i)) {
      const auto& hs = holders[rp.edge];
      bw.put(rp.lid);
      bw.put(static_cast<Index>(rp.size - 1));
      for (std::uint32_t o = rp.group; o < rp.group + rp.size; ++o) {
        if (hs[o].rank == rp.to) continue;
        bw.put(hs[o].rank);
        bw.put(hs[o].lid);
      }
    }
    send_counted(out, w, h, kTagSplReply, bw.take());
    i = j;
  }
}

/// Installs the owner's own SPL entries and the replied ones, in local-id
/// order (each object is answered by exactly one owner).
void install_spls(LocalMesh& lm, const rt::Inbox& inbox, RankWork& w) {
  for (const auto* m : inbox.with_tag(kTagSplReply)) {
    ByteReader rd(m->bytes);
    const auto nv = rd.get<Index>();
    for (Index k = 0; !rd.done(); ++k) {
      SplEntry entry{rd.get<Index>(), {}};
      const auto n = rd.get<Index>();
      for (Index c = 0; c < n; ++c) {
        const auto rank = rd.get<Rank>();
        entry.copies.push_back({rank, rd.get<Index>()});
      }
      (k < nv ? w.own_vspl : w.own_espl).push_back(std::move(entry));
    }
  }
  for (auto [list, map] : {std::pair{&w.own_vspl, &lm.shared_verts},
                           std::pair{&w.own_espl, &lm.shared_edges}}) {
    std::sort(list->begin(), list->end(),
              [](const SplEntry& a, const SplEntry& b) { return a.lid < b.lid; });
    for (auto& entry : *list) {
      map->emplace_hint(map->end(), entry.lid, std::move(entry.copies));
    }
    *list = {};
  }
}

}  // namespace

MigrateStats migrate(DistMesh& dm, rt::Engine& eng,
                     const partition::PartVec& new_root_part,
                     std::vector<std::vector<solver::State>>* states,
                     obs::MemoryTracker* mem) {
  const Rank P = dm.nranks();
  // plum-scale: dist(P) -- one migration work slot per simulated rank, written only by that rank
  std::vector<RankWork> work(static_cast<std::size_t>(P));
  if (states != nullptr) {
    PLUM_ASSERT(static_cast<Rank>(states->size()) == P);
  }
  // Supersteps: [canonical states], pack, unpack + report, answer,
  // install. Without states the first one is skipped.
  const int pack_step = states != nullptr ? 1 : 0;

  eng.run([&](Rank r, const rt::Inbox& inbox, rt::Outbox& out) {
    RankWork& w = work[static_cast<std::size_t>(r)];
    LocalMesh& lm = dm.local(r);
    std::vector<solver::State>* su =
        states != nullptr ? &(*states)[static_cast<std::size_t>(r)] : nullptr;
    const obs::MemScratch ms =
        mem != nullptr ? mem->scratch(r) : obs::MemScratch{};
    for (const auto& m : inbox.messages()) {
      w.bytes_received += static_cast<std::int64_t>(m.size_bytes());
    }
    switch (out.step() - pack_step) {
      case -1:
        PLUM_ASSERT(su->size() ==
                    static_cast<std::size_t>(lm.mesh.num_vertices()));
        send_canonical_states(r, lm, *su, ms, w, out);
        return true;
      case 0:
        if (su != nullptr) apply_canonical_states(inbox, *su);
        pack_and_send(r, lm, new_root_part, su, ms, w, out);
        return true;
      case 1:
        unpack_and_report(r, lm, su, inbox, ms, w, out);
        return true;
      case 2:
        answer_reports(r, inbox, ms, w, out);
        return true;
      default:
        install_spls(lm, inbox, w);
        return false;
    }
  });

  MigrateStats stats;
  // plum-scale: host-only -- migration statistics table for the report, not rank-resident
  stats.bytes_sent.assign(static_cast<std::size_t>(P), 0);
  // plum-scale: host-only -- migration statistics table for the report, not rank-resident
  stats.bytes_received.assign(static_cast<std::size_t>(P), 0);
  for (Rank r = 0; r < P; ++r) {
    const RankWork& w = work[static_cast<std::size_t>(r)];
    stats.roots_moved += w.roots_moved;
    stats.elements_moved += w.elements_moved;
    stats.sets_moved += w.sets;
    stats.bytes_sent[static_cast<std::size_t>(r)] = w.bytes_sent;
    stats.bytes_received[static_cast<std::size_t>(r)] = w.bytes_received;
  }
  return stats;
}

}  // namespace plum::pmesh
