"""Doc-sync and link-integrity tests for the ``docs/`` subsystem.

The serving stack's documentation is load-bearing (the protocol and
configuration references are the operator contract), so it is tested like
code:

* every NDJSON op the server dispatches, every HTTP route and status code
  the gateway *and the cluster router* emit, every ``ESTIMA_*`` environment
  variable referenced in ``src/`` and every ``EstimaConfig`` field must
  appear in its reference document — adding one without documenting it
  fails CI;
* every internal markdown link in README and ``docs/*.md`` must resolve to
  an existing file (and same-file anchors to an existing heading).
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"


def _read(path: Path) -> str:
    assert path.is_file(), f"missing documentation file: {path}"
    return path.read_text()


class TestServeProtocolDocSync:
    """`docs/serve-protocol.md` covers every op, route and status code."""

    @pytest.fixture(scope="class")
    def doc(self) -> str:
        return _read(DOCS / "serve-protocol.md")

    def test_every_ndjson_op_documented(self, doc):
        from repro.engine.server import SUPPORTED_OPS

        assert SUPPORTED_OPS  # the contract below must not vacuously pass
        for op in SUPPORTED_OPS:
            assert f"`{op}`" in doc, f"NDJSON op {op!r} is not documented"

    def test_every_http_route_documented(self, doc):
        from repro.engine.gateway import ROUTES

        assert ROUTES
        for method, path in ROUTES:
            assert f"`{method} {path}`" in doc, f"route {method} {path} is not documented"

    def test_every_status_code_documented(self, doc):
        from repro.engine.gateway import STATUS_REASONS

        assert STATUS_REASONS
        for status in STATUS_REASONS:
            assert re.search(rf"\b{status}\b", doc), f"status {status} is not documented"

    def test_ops_match_server_dispatch(self):
        """SUPPORTED_OPS is what handle_stream actually dispatches on."""
        import inspect

        from repro.engine import server

        source = inspect.getsource(server.PredictionServer.handle_stream)
        assert "SUPPORTED_OPS" in source
        for op in server.SUPPORTED_OPS:
            assert re.search(rf'"{op}"', source), (
                f"op {op!r} is in SUPPORTED_OPS but handle_stream never names it"
            )


class TestClusterDocSync:
    """The cluster layer is documented like the single-host stack."""

    @pytest.fixture(scope="class")
    def protocol_doc(self) -> str:
        return _read(DOCS / "serve-protocol.md")

    @pytest.fixture(scope="class")
    def architecture_doc(self) -> str:
        return _read(DOCS / "architecture.md")

    def test_router_routes_are_the_gateways(self):
        """The router's surface is the gateway's, verbatim — a client must
        not be able to tell a router from a single host."""
        from repro.engine.cluster.router import ROUTES as ROUTER_ROUTES
        from repro.engine.gateway import ROUTES as GATEWAY_ROUTES

        assert set(ROUTER_ROUTES) == set(GATEWAY_ROUTES)

    def test_every_router_route_documented(self, protocol_doc):
        from repro.engine.cluster.router import ROUTES

        assert ROUTES
        for method, path in ROUTES:
            assert f"`{method} {path}`" in protocol_doc, (
                f"router route {method} {path} is not documented"
            )

    def test_every_router_status_documented(self, protocol_doc):
        from repro.engine.cluster.router import ROUTER_STATUS_REASONS
        from repro.engine.gateway import STATUS_REASONS

        assert set(STATUS_REASONS) < set(ROUTER_STATUS_REASONS)  # 503 added
        for status in ROUTER_STATUS_REASONS:
            assert re.search(rf"\b{status}\b", protocol_doc), (
                f"router status {status} is not documented"
            )

    def test_cluster_components_in_architecture(self, architecture_doc):
        for component in (
            "HashRing",
            "BackendPool",
            "Router",
            "estima route",
            "estima cache export",
            "cluster/ring.py",
            "repro.engine.cluster.ring",
            "repro.engine.cluster.remote",
            "repro.engine.cluster.router",
            "repro.engine.cluster.archive",
        ):
            assert component in architecture_doc, (
                f"{component!r} is not described in architecture.md"
            )

    def test_cluster_cli_in_protocol_doc(self, protocol_doc):
        assert "estima route" in protocol_doc
        assert "failover" in protocol_doc.lower()


class TestConfigurationDocSync:
    """`docs/configuration.md` covers every field and every env var."""

    @pytest.fixture(scope="class")
    def doc(self) -> str:
        return _read(DOCS / "configuration.md")

    def test_every_config_field_documented(self, doc):
        from repro.core.config import EstimaConfig

        for field in dataclasses.fields(EstimaConfig):
            assert f"`{field.name}`" in doc, (
                f"EstimaConfig.{field.name} is not documented in configuration.md"
            )

    def test_every_env_var_documented(self, doc):
        env_vars: set[str] = set()
        for source_file in (REPO / "src").rglob("*.py"):
            env_vars.update(re.findall(r"\bESTIMA_[A-Z][A-Z_]*", source_file.read_text()))
        assert env_vars, "expected ESTIMA_* environment variables in src/"
        for name in sorted(env_vars):
            assert f"`{name}`" in doc, f"{name} is not documented in configuration.md"


class TestInternalLinks:
    """Internal markdown links in README and docs/ resolve."""

    _LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

    def _markdown_files(self) -> list[Path]:
        files = [REPO / "README.md"] + sorted(DOCS.glob("*.md"))
        assert len(files) >= 4  # README + the three reference docs
        return files

    @staticmethod
    def _anchors(text: str) -> set[str]:
        """GitHub-style slugs of every heading in a markdown document."""
        anchors = set()
        for line in text.splitlines():
            if line.startswith("#"):
                title = line.lstrip("#").strip().lower()
                slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
                anchors.add(slug)
        return anchors

    def test_readme_links_to_docs(self):
        readme = _read(REPO / "README.md")
        for name in ("architecture.md", "serve-protocol.md", "configuration.md"):
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"

    def test_links_resolve(self):
        for md in self._markdown_files():
            text = md.read_text()
            for target in self._LINK.findall(text):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path_part, _, anchor = target.partition("#")
                if path_part:
                    resolved = (md.parent / path_part).resolve()
                    assert resolved.exists(), (
                        f"{md.relative_to(REPO)} links to missing file {target!r}"
                    )
                elif anchor:
                    assert anchor in self._anchors(text), (
                        f"{md.relative_to(REPO)} links to missing anchor #{anchor}"
                    )
