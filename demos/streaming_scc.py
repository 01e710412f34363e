"""Strong connectivity from a single pass over an edge stream.

The streaming wrapper keeps only O(n log n) edges: the current DFS tree,
the stored non-tree edges inside the bristles, and one back-edge witness
per vertex for edges whose target fell on the stick.  That is still
enough to answer strongly-connected-component queries exactly.

Run:  python3 demos/streaming_scc.py
"""
import math

from incdfs import StreamState, gen_gnm, strong_components

n = 400
m = n * n // 6
seq = gen_gnm(n, m, seed=3, mode="directed")

st = StreamState(n, directed=True)
st.stream_sequence(seq.edges)

bound = 4 * n * math.log(n)
print(f"streamed {st.streamed} edges, retained {st.retained_edges} "
      f"(peak {st.peak_retained}, budget 4 n ln n = {bound:.0f})")
print(f"dropped {st.dropped} stick-incident edges on arrival")

comps = st.scc_query()
adj = [[] for _ in range(n + 1)]
for u, v in seq.edges:
    adj[u].append(v)
offline = strong_components(n, adj)
sizes = sorted((len(c) for c in comps), reverse=True)[:5]
print(f"{len(comps)} strongly connected components; largest: {sizes}")
print(f"matches the offline oracle on the full edge list: {comps == offline}")
