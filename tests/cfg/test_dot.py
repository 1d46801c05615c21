"""DOT export tests."""

from repro.session import Session
from repro.cfg.builder import build_flow_graph
from tests.cfg.edges_oracle import add_conflict_edges, add_mutex_edges
from repro.cfg.dot import to_dot
from tests.conftest import FIGURE2_SOURCE, build


class TestDot:
    def test_valid_structure(self, figure2):
        g = build_flow_graph(figure2)
        text = to_dot(g, title="fig2")
        assert text.startswith('digraph "fig2" {')
        assert text.rstrip().endswith("}")
        # One node line per block.
        assert text.count("shape=") == len(g.blocks)

    def test_edge_styles(self, figure2):
        g = build_flow_graph(figure2)
        add_conflict_edges(g)
        add_mutex_edges(g)
        text = to_dot(g)
        assert "style=dashed" in text  # conflict edges
        assert "style=dotted" in text  # mutex edges

    def test_statements_in_labels(self):
        g = build_flow_graph(build("total = 41 + 1;"))
        assert "total = 41 + 1;" in to_dot(g)

    def test_escaping(self):
        g = build_flow_graph(build('x = 1;'))
        out = to_dot(g, title='with "quotes"')
        assert '\\"quotes\\"' in out

    def test_api_pfg_dot(self):
        text = Session().dot(FIGURE2_SOURCE, title="fig2")
        assert "cobegin" in text and "coend" in text
        assert "lock" in text or "hexagon" in text
