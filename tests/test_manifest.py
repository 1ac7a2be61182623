"""Bit manifest: SHA-256 hashes of the meshes, the assembled matrices, one
``spmv`` of M, S and each Galerkin operator, and one ``VCycle`` application;
on a non-square grid, each Galerkin operator and one ``VCycle`` application.

A change that claims to move no result bit must pass this test unedited.
CG is left out: its dot products go through BLAS, whose bits can depend
on the machine.  After a deliberate change of bits, ``PYTHONPATH=src
python tests/test_manifest.py`` prints the new table.
"""
import hashlib

import numpy as np

from monofem.assembly import assemble_mass, assemble_stiffness
from monofem.ionic import make_model
from monofem.mesh import TriMesh, build_uniform_mesh
from monofem.solver import MonodomainSolver, SolverConfig
from monofem.sparse import spmv

from test_sparse import ASSEMBLY_TENSORS

BOUNDS = (-1.25, -1.25, 1.25, 1.25)
TENSORS = dict(zip(("identity", "rotated", "variable"), ASSEMBLY_TENSORS))


def digest(*parts):
    """SHA-256 of the bytes of each array (ints as int64), in order."""
    sha = hashlib.sha256()
    for a in parts:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()


def matrix_digest(A):
    return digest(A.offsets, A.data, np.int64(A.nnz))


def meshes():
    for h in (1 / 4, 1 / 16, 1 / 64, 1 / 128):
        yield f"h=1/{round(1 / h)}", build_uniform_mesh(BOUNDS, h)
    base = build_uniform_mesh(BOUNDS, 1 / 16)
    jitter = np.random.default_rng(0).uniform(-0.2, 0.2, base.nodes.shape) * base.h
    yield "jittered h=1/16", TriMesh(base.nodes + jitter, base.triangles, base.h, base.bounds)


def manifest():
    table = {}
    for name, mesh in meshes():
        table[name, "mesh"] = digest(mesh.nodes, mesh.triangles)
        table[name, "M"] = matrix_digest(assemble_mass(mesh))
        for label, D in TENSORS.items():
            table[name, f"A {label}"] = matrix_digest(assemble_stiffness(mesh, D))
    # S = M + k A of the rotated tensor at h = 1/64, k = 1/40, where the
    # solver builds a V-cycle over four grids.
    h, k = 1 / 64, 1 / 40
    cfg = SolverConfig(k=k, t_final=k, ionic=make_model("fhn"), diffusion=TENSORS["rotated"])
    solver = MonodomainSolver(build_uniform_mesh(BOUNDS, h), cfg)
    x = np.random.default_rng(11).standard_normal(solver.system.nrows)
    table["h=1/64", "S"] = matrix_digest(solver.system)
    table["h=1/64", "spmv S"] = digest(spmv(solver.system, x))
    table["h=1/64", "V-cycle S"] = digest(solver.multigrid(x))
    for level, op in enumerate(solver.multigrid.operators[1:], 1):
        x = np.random.default_rng(11 + level).standard_normal(op.nrows)
        table["h=1/64", f"spmv Galerkin {level}"] = digest(spmv(op, x))
    # S = M + k A of the variable tensor on a non-square grid at h = 1/32,
    # k = 1: 80 x 40 cells, then 40 x 20, 20 x 10 and 10 x 5, so a transfer
    # that swaps nx and ny changes these rows.
    h, k = 1 / 32, 1.0
    cfg = SolverConfig(k=k, t_final=k, ionic=make_model("fhn"), diffusion=TENSORS["variable"])
    solver = MonodomainSolver(build_uniform_mesh((-1.25, -0.625, 1.25, 0.625), h), cfg)
    assert solver.multigrid.cells == [(40, 20), (20, 10), (10, 5)]
    x = np.random.default_rng(13).standard_normal(solver.system.nrows)
    table["80x40", "V-cycle S"] = digest(solver.multigrid(x))
    for level, op in enumerate(solver.multigrid.operators[1:], 1):
        table["80x40", f"Galerkin {level}"] = matrix_digest(op)
    # M and S of the identity tensor at h = 1/128, k = h^2: 103,041 rows,
    # so a product spans several blocks.
    h = 1 / 128
    cfg = SolverConfig(k=h * h, t_final=h * h, ionic=make_model("fhn"),
                       diffusion=TENSORS["identity"])
    solver = MonodomainSolver(build_uniform_mesh(BOUNDS, h), cfg)
    x = np.random.default_rng(12).standard_normal(solver.system.nrows)
    table["h=1/128", "spmv M"] = digest(spmv(solver.mass, x))
    table["h=1/128", "spmv S"] = digest(spmv(solver.system, x))
    return table


MANIFEST = {
    ('h=1/4', 'mesh'): 'b731d5ca2ab65640a56afbcf6ae9b7c43ebb455db99e6c1bc4adc5b28d863c2d',
    ('h=1/4', 'M'): '66db6366053ef18b6fa30da3e61bd19ee2ccf5efb5c2312f8b5166c5384847a3',
    ('h=1/4', 'A identity'): '6a5a1cde36d7785d1fbd899dbce2c29671ad48499b70c68f41556114c2d90e58',
    ('h=1/4', 'A rotated'): '9c5bdb13d5b0604bb0ce44b02ea7bc3f45e08da7b2b311b10ef91ac619c42eb5',
    ('h=1/4', 'A variable'): '29792d7d0ac4984b1f2321f18a93f4dd80a257b5f751b29be4952bdd541a0304',
    ('h=1/16', 'mesh'): '760c7e865a8876960cd79279884b873dbdb3cde4d2e9d0c2e045e6ecc5db4647',
    ('h=1/16', 'M'): '0d5655228a648d200792fc56e79fa1ae45b1fc48cb3ac3a1c60a65dc3589d2b8',
    ('h=1/16', 'A identity'): '2f26cf26f5f640178257d2fa189c636591e81afec5157847a2de279cdf9a6273',
    ('h=1/16', 'A rotated'): '33485913326baf6ea95fa85199a18ecc740fd50f3039008efda6c10dd0db4023',
    ('h=1/16', 'A variable'): '8385909abeea14e9736614d2459d446d7a290bf9c523dde28da95a920c06e802',
    ('h=1/64', 'mesh'): '1d85fbfa30f30aac32d34f354494efdef126ac1bf976ceb6c7ca7a771e9dfdf4',
    ('h=1/64', 'M'): '5468d4b4ebb6a59be2caddf062bea43d501f99cc1b538fcbad25016b37bdcda1',
    ('h=1/64', 'A identity'): 'f2a498043caeb909fe34501d824d41921c64b69a9691c615e299fa533fc28780',
    ('h=1/64', 'A rotated'): '0b23a93c9b616f1ff098dad7f5cbb283109abbeab973bb6a03e68499a43684e5',
    ('h=1/64', 'A variable'): 'a39f246ea4cc7e384779ad6179d62fea2c3b0e1fe4fec8e30a8376e49cbc6080',
    ('h=1/128', 'mesh'): '6d0e52f207196147bb2f74be27c59f53022003734d44933fb377a5bcbf888299',
    ('h=1/128', 'M'): '98aac28b7e7fc251520dcbc0e335bed99900abec263757a31826c425e6a9da36',
    ('h=1/128', 'A identity'): '2cd0064a8828f62f3840c19738169666f5b77b16f9426c6acd518ad04bed72e8',
    ('h=1/128', 'A rotated'): '18b786db7a8e9e9df51d978aba8064efe5601c00e2464be326df528d86b96eb6',
    ('h=1/128', 'A variable'): '1627942f129598103cfe713572ffee914b0aca1c640442be4990f5c8d2c5897f',
    ('jittered h=1/16', 'mesh'): '9bf377d497684c7d99a41de5769b85d61278594598df95d67ce199cdfa356643',
    ('jittered h=1/16', 'M'): 'a878e3bd27357e793ad3019bdda8d02a3047805c7db6beba0ce8ae8ede533bbe',
    ('jittered h=1/16', 'A identity'): '1aaade453f54de35d829933321efd36f358cd4985b6a2abf903d6e0b80e4d84f',
    ('jittered h=1/16', 'A rotated'): '2d979d209209e29f8f8455e82309c8c222bb54a946715358c3c8579ba60f25bf',
    ('jittered h=1/16', 'A variable'): '810c0b2af77d8052bcfdf0eb951657c7aa85271623edca9ca1ba94abdc27c642',
    ('h=1/64', 'S'): '56ca03b24d95030ee7a4d3a929160c2a5f8d901780bde3de783e0b35ef8b2c7a',
    ('h=1/64', 'spmv S'): 'dd4289e1329d573f3ff70d49cd6c70ef9ac91fc77e9d406bf115f48060018ddf',
    ('h=1/64', 'V-cycle S'): '6de6c0f1fb98756363747cd97fc3b880b973fa7e534bfcf6813bf911b09b3160',
    ('h=1/64', 'spmv Galerkin 1'): '8f1f18da5de6fa66af26f45bb02058af2d6ccb010770c722b0e48eacc14707bb',
    ('h=1/64', 'spmv Galerkin 2'): 'a10585f683ff072eae079b7e1245b7c1af91061729a1e344f1bb4fe0fa0cda6c',
    ('h=1/64', 'spmv Galerkin 3'): '25e0f878bb36ef9b276ef5a42248045d696e9e7c4b585febc72436c5888e342f',
    ('80x40', 'V-cycle S'): '93d9491eb4f134747af79572cbae1df5cd0922f4acbf4be731f381c2517047d9',
    ('80x40', 'Galerkin 1'): '2d0e8b64d6638e0685e4a1efdc03705a4716053457dcfad432165020bf94e3f5',
    ('80x40', 'Galerkin 2'): '46b9f5d7860d6acdc776f1001ed6550a96d5d05bf3b584c4ea437e8b28348fb1',
    ('80x40', 'Galerkin 3'): 'a9217277ca247b278f8e726b525394011ebedbc7a433153d37f9e826271c8195',
    ('h=1/128', 'spmv M'): '189467359b9c6055d523b93a24ace234eda6b0b158f2bd9b222a9aea47347ba1',
    ('h=1/128', 'spmv S'): 'aaf964833bb4a30c2458642da0e4cafe2f1b5493bba2caee8ccc96e71486506d',
}


def test_bit_manifest():
    assert manifest() == MANIFEST


if __name__ == "__main__":
    for key, value in manifest().items():
        print(f"    {key!r}: {value!r},")
