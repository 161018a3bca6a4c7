from setuptools import find_packages, setup

setup(
    name="repro",
    description="Memory-constrained workflow mapping onto heterogeneous "
                "platforms (ICPP 2024 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy backs the seeded random streams (utils/rng) that the
    # workflow generators, sim and anneal draw from; it loads
    # only there, so serve and worker start without it and a decoded
    # request solves without it
    install_requires=["numpy"],
)
