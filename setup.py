from setuptools import find_packages, setup

setup(
    name="repro",
    description="Memory-constrained workflow mapping onto heterogeneous "
                "platforms (ICPP 2024 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # numpy backs the seeded random streams (utils/rng) that the
    # workflow generators draw from
    install_requires=["numpy"],
)
